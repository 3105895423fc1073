package experiment_test

import (
	"strings"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/workload"
)

func specsFor(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	var out []workload.Spec
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("no workload %q", n)
		}
		out = append(out, s)
	}
	return out
}

func TestMeasurePredictAgreeOnResult(t *testing.T) {
	for _, s := range specsFor(t, "sed", "lisp") {
		meas, err := experiment.Measure(s, kernel.Ultrix, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := experiment.Predict(s, kernel.Ultrix, 2)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Result != pred.Result {
			t.Errorf("%s: results diverge (%d vs %d)", s.Name, meas.Result, pred.Result)
		}
		row := experiment.Row{Name: s.Name, Measured: meas.Seconds, Predicted: pred.Seconds}
		t.Logf("%s: measured=%.5fs predicted=%.5fs err=%.1f%% (cpu=%d mem=%d arith=%d io=%d) utlb meas=%d pred=%d",
			s.Name, meas.Seconds, pred.Seconds, row.PercentError(),
			pred.CPUCycles, pred.MemStalls, pred.ArithStalls, pred.IOStalls,
			meas.UTLBMisses, pred.UTLBMisses)
		if e := row.PercentError(); e < -60 || e > 60 {
			t.Errorf("%s: prediction error %.1f%% is out of any reasonable band", s.Name, e)
		}
	}
}

func TestConformanceCleanOnSimulatorOutput(t *testing.T) {
	for _, s := range specsFor(t, "sed") {
		for _, flavor := range []kernel.Flavor{kernel.Ultrix, kernel.Mach} {
			res, err := experiment.Conformance(s, flavor, 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name, flavor, err)
			}
			if !res.Clean() {
				n := len(res.Diags)
				if n > 5 {
					n = 5
				}
				t.Errorf("%s/%v: simulator trace fails conformance (%d diags): %v",
					s.Name, flavor, len(res.Diags), res.Diags[:n])
			}
			if res.Records == 0 || res.Words == 0 {
				t.Errorf("%s/%v: degenerate result %+v", s.Name, flavor, res)
			}
			t.Logf("%s/%v: %d words, %d records, %d markers checked clean",
				s.Name, flavor, res.Words, res.Records, res.Markers)
		}
	}
}

func TestStreamingConformanceAndPredict(t *testing.T) {
	stream := kernel.DefaultStream()
	for _, s := range specsFor(t, "sed") {
		res, err := experiment.ConformanceWith(s, kernel.Ultrix, 1, stream)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !res.Clean() {
			n := len(res.Diags)
			if n > 5 {
				n = 5
			}
			t.Errorf("%s: compressed stream fails conformance (%d diags): %v",
				s.Name, len(res.Diags), res.Diags[:n])
		}
		base, err := experiment.Predict(s, kernel.Ultrix, 2)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := experiment.PredictWith(s, kernel.Ultrix, 2, stream)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Result != base.Result {
			t.Errorf("%s: streaming drain changed the workload result (%d vs %d)",
				s.Name, pred.Result, base.Result)
		}
		if pred.Stream.Epochs == 0 {
			t.Errorf("%s: streaming predict handed off no epochs", s.Name)
		}
		if pred.Stream.DecodeErrors != 0 {
			t.Errorf("%s: %d decode errors on the wire", s.Name, pred.Stream.DecodeErrors)
		}
		if pred.Stream.EncodedBytes == 0 || pred.Stream.EncodedBytes >= pred.Stream.RawBytes {
			t.Errorf("%s: compression did not shrink the stream (%d -> %d bytes)",
				s.Name, pred.Stream.RawBytes, pred.Stream.EncodedBytes)
		}
		if pred.OverlapCycles == 0 {
			t.Errorf("%s: no analysis cycles were overlapped", s.Name)
		}
		if pred.Seconds != base.Seconds {
			t.Errorf("%s: streaming drain changed the *prediction* (%.5fs vs %.5fs); "+
				"the drain mode must not perturb what the analysis computes",
				s.Name, pred.Seconds, base.Seconds)
		}
		if pred.TracedCycles >= base.TracedCycles {
			t.Errorf("%s: overlapped drain not faster (%d traced cycles vs two-phase %d)",
				s.Name, pred.TracedCycles, base.TracedCycles)
		}
		t.Logf("%s: %d epochs, %d -> %d bytes (%.2fx), overlap=%d cycles, traced %d vs two-phase %d",
			s.Name, pred.Stream.Epochs, pred.Stream.RawBytes, pred.Stream.EncodedBytes,
			float64(pred.Stream.RawBytes)/float64(pred.Stream.EncodedBytes),
			pred.OverlapCycles, pred.TracedCycles, base.TracedCycles)
	}
}

// TestStreamDrainGates holds the compressed epoch-ring drain to its
// claims against the two-phase drain over full predictions of sed and
// lisp. The 512 KB epoch is small enough that each run hands off many
// epochs, so the ring's pipelining is exercised, not only its final
// flush. Both drains must compute the same result and pass
// conformance; the overlapped drain must retire in strictly fewer
// simulated cycles, and the wire codec must shrink the stream at
// least 4x.
func TestStreamDrainGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced predictions")
	}
	const bufBytes = 512 << 10
	for _, s := range specsFor(t, "sed", "lisp") {
		two, err := experiment.PredictStream(s, kernel.Ultrix, 1, bufBytes, kernel.StreamConfig{})
		if err != nil {
			t.Fatalf("%s two-phase: %v", s.Name, err)
		}
		str, err := experiment.PredictStream(s, kernel.Ultrix, 1, bufBytes, kernel.DefaultStream())
		if err != nil {
			t.Fatalf("%s stream: %v", s.Name, err)
		}
		for _, p := range []*experiment.Predicted{two, str} {
			if !p.Conformance.Clean() {
				t.Errorf("%s: trace fails conformance (%d diags)", s.Name, len(p.Conformance.Diags))
			}
		}
		if str.Result != two.Result {
			t.Errorf("%s: workload result changed across drains (%d vs %d)", s.Name, str.Result, two.Result)
		}
		if str.TracedCycles >= two.TracedCycles {
			t.Errorf("%s: overlapped drain not faster in simulated time (%d vs two-phase %d cycles)",
				s.Name, str.TracedCycles, two.TracedCycles)
		}
		raw, enc := str.Stream.RawBytes, str.Stream.EncodedBytes
		if enc == 0 || raw < 4*enc {
			t.Errorf("%s: compression %d -> %d bytes is below 4x", s.Name, raw, enc)
		}
		t.Logf("%s: %d epochs, traced %d vs two-phase %d cycles, %d -> %d bytes",
			s.Name, str.Stream.Epochs, str.TracedCycles, two.TracedCycles, raw, enc)
	}
}

func TestTable1Inventory(t *testing.T) {
	rows, err := experiment.Table1(specsFor(t, "gcc", "yacc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 || r.Instr == 0 || r.Description == "" {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestTable2AndFigure3(t *testing.T) {
	specs := specsFor(t, "gcc", "yacc")[:1] // gcc only: four full system runs
	rows, err := experiment.Table2(specs)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.UltrixMeasured <= 0 || r.UltrixPredicted <= 0 ||
		r.MachMeasured <= 0 || r.MachPredicted <= 0 {
		t.Fatalf("degenerate row %+v", r)
	}
	// Mach must not be cheaper than Ultrix for a syscall-using program.
	if r.MachMeasured < r.UltrixMeasured {
		t.Errorf("Mach %.4f < Ultrix %.4f for gcc", r.MachMeasured, r.UltrixMeasured)
	}
	// Predictions within the paper's error band (±15% generously).
	fig := experiment.Figure3(rows)
	for _, fr := range fig {
		if e := fr.PercentError(); e < -15 || e > 15 {
			t.Errorf("%s: prediction error %.1f%% outside band", fr.Name, e)
		}
	}
}

func TestBufferSizingMonotonic(t *testing.T) {
	spec, _ := workload.ByName("sed")
	rows, err := experiment.BufferSizing(spec, []uint32{256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ModeSwitches < rows[1].ModeSwitches {
		t.Errorf("smaller buffer must switch at least as often: %d vs %d",
			rows[0].ModeSwitches, rows[1].ModeSwitches)
	}
	if rows[0].InstrPerPhase > rows[1].InstrPerPhase {
		t.Errorf("instructions per phase must grow with the buffer: %.0f vs %.0f",
			rows[0].InstrPerPhase, rows[1].InstrPerPhase)
	}
}

func TestKernelCPIRatio(t *testing.T) {
	spec, _ := workload.ByName("sed")
	res, err := experiment.KernelCPI(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The Tunix observation's direction: kernel CPI strictly above
	// user CPI, by a small multiple (the paper saw ~3x on the Titan).
	if res.Ratio <= 1.0 || res.Ratio > 5.0 {
		t.Errorf("kernel/user CPI ratio %.2f out of the paper's shape", res.Ratio)
	}
	if res.KernelInstr == 0 || res.UserInstr == 0 {
		t.Error("mode-attributed instruction counts missing")
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := experiment.FormatTable(
		[]string{"a", "long-header", "c"},
		[][]string{{"1", "2", "3"}, {"wide-cell", "x", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if len(l) > len(lines[0])+2 {
			t.Errorf("ragged table:\n%s", out)
		}
	}
}
