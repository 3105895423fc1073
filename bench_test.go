package systrace_test

// One benchmark per table and figure of the paper. Each regenerates
// its artifact and reports the headline quantities as custom metrics,
// so `go test -bench=. -benchmem` reproduces the whole evaluation on a
// representative subset (cmd/experiments runs the full twelve-workload
// suite).

import (
	"runtime"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/obs"
	"systrace/internal/trace"
	"systrace/internal/workload"
)

// benchSpecs is the subset used by the benchmarks: an I/O-bound
// program, the biggest integer program, pure recursion, and the
// store-heavy FP loops.
func benchSpecs(b *testing.B, names ...string) []workload.Spec {
	b.Helper()
	if len(names) == 0 {
		names = []string{"sed", "compress", "lisp", "liv"}
	}
	var specs []workload.Spec
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			b.Fatalf("no workload %q", n)
		}
		specs = append(specs, s)
	}
	return specs
}

func BenchmarkTable1Workloads(b *testing.B) {
	specs := benchSpecs(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table1(specs)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, r := range rows {
			total += r.Seconds
		}
		b.ReportMetric(total, "simsec/suite")
	}
}

func BenchmarkTable2RunTimes(b *testing.B) {
	specs := benchSpecs(b, "sed", "lisp")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table2(specs)
		if err != nil {
			b.Fatal(err)
		}
		var maxErr float64
		for _, r := range rows {
			e := experiment.Row{Name: r.Name, Measured: r.UltrixMeasured, Predicted: r.UltrixPredicted}.PercentError()
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
		b.ReportMetric(maxErr, "max%err")
	}
}

func BenchmarkFigure3PredictionError(b *testing.B) {
	specs := benchSpecs(b, "sed", "lisp")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table2(specs)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range experiment.Figure3(rows) {
			e := r.PercentError()
			if e < 0 {
				e = -e
			}
			sum += e
		}
		b.ReportMetric(sum/float64(len(rows)), "mean%err")
	}
}

func BenchmarkTable3TLBMisses(b *testing.B) {
	specs := benchSpecs(b, "sed", "tomcatv")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table3(specs)
		if err != nil {
			b.Fatal(err)
		}
		// Report the Mach/Ultrix miss ratio of the I/O-bound workload:
		// the paper's signature result is Mach >> Ultrix there.
		r := rows[0]
		if r.UltrixMeasured > 0 {
			b.ReportMetric(float64(r.MachMeasured)/float64(r.UltrixMeasured), "mach/ultrix")
		}
	}
}

func BenchmarkFigure2Instrumentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiment.Figure2()
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure1TraceFlow(b *testing.B) {
	spec, _ := workload.ByName("sed")
	for i := 0; i < b.N; i++ {
		pred, err := experiment.Predict(spec, kernel.Ultrix, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pred.TraceWords), "tracewords")
		b.ReportMetric(float64(pred.Events), "events")
	}
}

func BenchmarkTextGrowth(b *testing.B) {
	specs := benchSpecs(b, "gcc")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.TextGrowth(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Tool {
			case "epoxie":
				b.ReportMetric(r.Factor, "epoxie-x")
			case "pixie":
				b.ReportMetric(r.Factor, "pixie-x")
			}
		}
	}
}

func BenchmarkTimeDilation(b *testing.B) {
	specs := benchSpecs(b, "lisp")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.TimeDilation(specs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Factor, "slowdown-x")
	}
}

func BenchmarkBufferSizing(b *testing.B) {
	spec, _ := workload.ByName("sed")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.BufferSizing(spec, []uint32{256 << 10, 2 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].ModeSwitches < rows[1].ModeSwitches {
			b.Fatal("smaller buffer should switch modes at least as often")
		}
		b.ReportMetric(rows[1].InstrPerPhase, "instr/phase")
	}
}

func BenchmarkTunixKernelCPI(b *testing.B) {
	spec, _ := workload.ByName("sed")
	for i := 0; i < b.N; i++ {
		res, err := experiment.KernelCPI(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "kcpi/ucpi")
	}
}

func BenchmarkPageMappingVariance(b *testing.B) {
	spec, _ := workload.ByName("tomcatv")
	for i := 0; i < b.N; i++ {
		res, err := experiment.PageMappingVariance(spec, []uint32{3, 17, 91})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpreadPercent, "spread%")
		b.ReportMetric(res.SystemFraction*100, "sys%")
	}
}

func BenchmarkErrorSources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.ErrorSources([]string{"sed", "liv"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].FPOverlapCycles), "fp-overlap-cyc")
	}
}

func BenchmarkDefensiveTracing(b *testing.B) {
	// Detection probability of single-word corruptions on a live
	// system trace (E13, §4.3).
	spec, _ := workload.ByName("lisp")
	pred, err := experiment.Predict(spec, kernel.Ultrix, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = pred
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detected, total, err := experiment.CorruptionDetection(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(detected)/float64(total)*100, "detect%")
	}
	_ = trace.MarkerBase
}

// suite runs a multi-table slice of the evaluation (the run sets of
// Table 1/2/3, Figure 3, the dilation study, the error anatomy, and
// the CPI probe all overlap) through one Runner.
func suite(b *testing.B, r *experiment.Runner, specs []workload.Spec) {
	b.Helper()
	if _, err := r.Table1(specs); err != nil {
		b.Fatal(err)
	}
	t2, err := r.Table2(specs)
	if err != nil {
		b.Fatal(err)
	}
	_ = experiment.Figure3(t2)
	if _, err := r.Table3(specs); err != nil {
		b.Fatal(err)
	}
	if _, err := r.TimeDilation(specs); err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	if _, err := r.ErrorSources(names); err != nil {
		b.Fatal(err)
	}
	if _, err := r.KernelCPI(specs[0]); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSuite measures the orchestrator's effect on the evaluation:
// "naive" re-creates a Runner per table at one worker (the historical
// cost, every table re-simulating its own runs), "j1" shares one
// memoizing Runner serially, "j4" adds a 4-worker pool.
func BenchmarkSuite(b *testing.B) {
	specs := benchSpecs(b, "sed", "lisp")
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh 1-worker Runner per table: no sharing across
			// tables, no parallelism — the pre-orchestrator behavior.
			suiteNaive(b, specs)
		}
	})
	b.Run("j1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := experiment.NewRunner(1)
			suite(b, r, specs)
			reportDedup(b, r)
		}
	})
	b.Run("j4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := experiment.NewRunner(4)
			suite(b, r, specs)
			reportDedup(b, r)
		}
	})
}

// suiteNaive is the same slice of the evaluation with a fresh
// single-worker Runner per table: no result sharing, no parallelism —
// what each package-level table function did before the orchestrator.
func suiteNaive(b *testing.B, specs []workload.Spec) {
	b.Helper()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	if _, err := experiment.NewRunner(1).Table1(specs); err != nil {
		b.Fatal(err)
	}
	t2, err := experiment.NewRunner(1).Table2(specs)
	if err != nil {
		b.Fatal(err)
	}
	_ = experiment.Figure3(t2)
	if _, err := experiment.NewRunner(1).Table3(specs); err != nil {
		b.Fatal(err)
	}
	if _, err := experiment.NewRunner(1).TimeDilation(specs); err != nil {
		b.Fatal(err)
	}
	if _, err := experiment.NewRunner(1).ErrorSources(names); err != nil {
		b.Fatal(err)
	}
	if _, err := experiment.NewRunner(1).KernelCPI(specs[0]); err != nil {
		b.Fatal(err)
	}
}

func reportDedup(b *testing.B, r *experiment.Runner) {
	b.Helper()
	s := r.Stats()
	b.ReportMetric(float64(s.Executed), "runs")
	b.ReportMetric(float64(s.Deduplicated()), "memoized")
}

// BenchmarkBoot measures raw interpreter speed in simulated MIPS over
// full Ultrix boots of sed and lisp. The tier cells run each execution
// tier over the original (untraced) and instrumented (traced) images.
// The recorder cells run the default untraced boot with the obs flight
// recorder disabled (recorder_off) or the guest-PC profiler sampling
// every 4096 instructions (profiler_on); the default boot itself is
// superblock/untraced. Only sys.Run is timed. Ratios between cells are
// meaningful only within one run on one host, so nothing here is gated.
func BenchmarkBoot(b *testing.B) {
	type cell struct {
		name                  string
		tier                  tier
		traced                bool
		recorderOff, profiler bool
	}
	var cells []cell
	for _, t := range []tier{tierReference, tierPredecode, tierSuperblock} {
		cells = append(cells,
			cell{name: string(t) + "/untraced", tier: t},
			cell{name: string(t) + "/traced", tier: t, traced: true})
	}
	cells = append(cells,
		cell{name: "recorder_off", tier: tierSuperblock, recorderOff: true},
		cell{name: "profiler_on", tier: tierSuperblock, profiler: true})

	for _, spec := range benchSpecs(b, "sed", "lisp") {
		for _, c := range cells {
			b.Run(spec.Name+"/"+c.name, func(b *testing.B) {
				var instret uint64
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					sys, _, err := experiment.Boot(spec, kernel.Ultrix, c.traced, 1)
					if err != nil {
						b.Fatal(err)
					}
					pinTier(sys, c.tier)
					if c.profiler {
						sys.M.CPU.SetProfiler(4096, obs.NewProfile().Hit)
					}
					// Collect the previous boot's machine outside the
					// timed region.
					runtime.GC()
					obs.SetEnabled(!c.recorderOff)
					b.StartTimer()
					err = sys.Run(experiment.RunBudget)
					b.StopTimer()
					obs.SetEnabled(true)
					if err != nil {
						b.Fatal(err)
					}
					instret += sys.M.CPU.Stat.Instret
				}
				b.ReportMetric(float64(instret)/b.Elapsed().Seconds()/1e6, "MIPS")
			})
		}
	}
}
