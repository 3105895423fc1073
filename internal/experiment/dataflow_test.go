package experiment_test

import (
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
)

// TestStaticElisionFloor holds the liveness-driven dead-register
// elision to a corpus-wide floor: across the traced Ultrix kernel and
// the sed and lisp images, at least 20% of the rewriter's save sites
// must be proven dead and elided.
func TestStaticElisionFloor(t *testing.T) {
	k, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	sites, elided := k.Instr.Flow.SaveSites, k.Instr.Flow.SavesElided
	for _, s := range specsFor(t, "sed", "lisp") {
		p, err := experiment.Program(s)
		if err != nil {
			t.Fatal(err)
		}
		sites += p.Instr.Instr.Flow.SaveSites
		elided += p.Instr.Instr.Flow.SavesElided
	}
	t.Logf("%d of %d save sites elided", elided, sites)
	if sites == 0 || 5*elided < sites {
		t.Error("elision below the 20% floor")
	}
}

// TestStaticCostModel validates the dataflow static trace-cost table:
// applied to the block-entry mix of a traced boot, it must predict the
// words the parser consumed to within 10% on every workload checked.
func TestStaticCostModel(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced predictions")
	}
	for _, s := range specsFor(t, "sed", "lisp", "egrep", "yacc") {
		pred, err := experiment.Predict(s, kernel.Ultrix, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		e := pred.StaticWordErr()
		t.Logf("%s: cost table predicts %d words, parser consumed %d (%+.3f%%)",
			s.Name, pred.StaticWords(), pred.Parser.Words, 100*e)
		if e < -0.10 || e > 0.10 {
			t.Errorf("%s: cost-model error beyond 10%%", s.Name)
		}
	}
}
