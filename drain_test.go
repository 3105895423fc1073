package systrace_test

// Fidelity of the two-phase drain. The two-phase doorbell hands each
// buffer to the epoch-ring consumer like the streaming drain does, and
// differs from it only in what it charges the machine: the whole
// buffer's analysis time, stop-the-world. These golden values were
// recorded from the drain that copied each buffer out and ran the
// analysis inline on the machine goroutine; any change to the charge
// model, the delivered words or their order moves at least one of them.

import (
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/trace"
	"systrace/internal/workload"
)

func TestTwoPhaseDrainGolden(t *testing.T) {
	spec, ok := workload.ByName("sed")
	if !ok {
		t.Fatal("no sed workload")
	}
	sys, _, err := experiment.Boot(spec, kernel.Ultrix, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &streamObs{}
	sys.OnTrace = func(words []uint32) {
		for _, w := range words {
			tr.mix(w)
		}
	}
	if err := sys.Run(experiment.RunBudget); err != nil {
		t.Fatal(err)
	}
	machine := []struct {
		name      string
		got, want uint64
	}{
		{"Cycles", sys.M.Cycles(), 32853918},
		{"ExtraCycles", sys.M.ExtraCycles(), 7065776},
		{"DrainedWords", sys.DrainedWords, 883222},
		{"Doorbells", sys.Doorbells, 1},
		{"OnTrace word hash", tr.h, 7084038711201749482},
		{"OnTrace words", tr.n, 883222},
	}
	for _, c := range machine {
		if c.got != c.want {
			t.Errorf("two-phase sed boot: %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if sys.StreamStats != (kernel.StreamStats{}) {
		t.Errorf("two-phase drain recorded stream accounting: %+v", sys.StreamStats)
	}
	if ov := sys.M.OverlapCycles(); ov != 0 {
		t.Errorf("two-phase drain recorded %d overlapped analysis cycles", ov)
	}

	p, err := experiment.Predict(spec, kernel.Ultrix, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := []struct {
		name      string
		got, want uint64
	}{
		{"MemStalls", p.MemStalls, 817431},
		{"UTLBMisses", p.UTLBMisses, 3},
		{"Events", p.Events, 3633285},
	}
	for _, c := range pred {
		if c.got != c.want {
			t.Errorf("Predict(sed): %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if p.Stream != (kernel.StreamStats{}) {
		t.Errorf("two-phase Predict recorded stream accounting: %+v", p.Stream)
	}

	// The default 4 MB buffer drains sed once; a small buffer makes
	// the same prediction ring the doorbell many times, so the charge
	// and the epoch order are pinned across boundaries too.
	small, err := experiment.PredictStream(spec, kernel.Ultrix, 1,
		trace.KernelBufSlack+256<<10, kernel.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	multi := []struct {
		name      string
		got, want uint64
	}{
		{"ModeSwitches", small.ModeSwitches, 13},
		{"TraceWords", small.TraceWords, 881618},
		{"TracedCycles", small.TracedCycles, 32933070},
		{"AnalysisCycles", small.AnalysisCycles, 7052944},
		{"MemStalls", small.MemStalls, 817165},
		{"UTLBMisses", small.UTLBMisses, 3},
		{"Events", small.Events, 3628153},
	}
	for _, c := range multi {
		if c.got != c.want {
			t.Errorf("Predict(sed, small buffer): %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if small.Stream != (kernel.StreamStats{}) || small.OverlapCycles != 0 {
		t.Errorf("two-phase small-buffer Predict recorded stream accounting: %+v, overlap %d",
			small.Stream, small.OverlapCycles)
	}
}
