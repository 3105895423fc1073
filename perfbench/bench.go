package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/workload"
)

// config is one simulation: a program on a flavor under a page-mapping
// seed.
type config struct {
	spec   workload.Spec
	flavor kernel.Flavor
	seed   uint32
}

func (c config) String() string { return fmt.Sprintf("%s/%v/seed%d", c.spec.Name, c.flavor, c.seed) }

// bench is one invocation's state.
type bench struct {
	o    options
	wl   workloadDef
	cfgs []config

	setupTotals []float64
	setupLayers []ledger
	arith       map[string]uint64 // pixie arithmetic stalls by program, from set-up

	// expect holds the expected exit status: per config from the
	// untraced Measure for predictions, per program for the suite.
	expect map[string]uint32
	// refs are the reference measurements a prediction is judged by.
	refs map[string]*experiment.Measured
	// first holds each operation's deterministic statistics from the
	// first time it ran; every later run must reproduce them.
	first map[string][]uint64

	attempted, failed int
	failures          []string

	started    bool    // the first (warm-up) pass has run
	origInstr  float64 // untraced instructions of one pass's programs
	passWalls  []float64
	passAllocs []float64 // MiB allocated on the heap per pass
	sim        ledger    // time_err_pct, utlb_err_pct, time_dilation
	runner     experiment.Stats

	// Traced run only.
	tracedWalls []float64
	layers      []ledger
	aloneSum    float64 // Σ per-job seconds of the suite, each run alone
	tr          *tracer
}

func newBench(o options, wl workloadDef) (*bench, error) {
	b := &bench{o: o, wl: wl, arith: map[string]uint64{}, expect: map[string]uint32{},
		refs: map[string]*experiment.Measured{}, first: map[string][]uint64{}, tr: newTracer()}
	seeds := mapSeeds(o.seed, len(wl.programs)*wl.mapSeeds)
	for i, name := range wl.programs {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		if wl.kind != measureSuite {
			b.cfgs = append(b.cfgs, config{spec, wl.flavor, seeds[i]})
			continue
		}
		for _, fl := range []kernel.Flavor{kernel.Ultrix, kernel.Mach} {
			for _, s := range seeds[:wl.mapSeeds] {
				b.cfgs = append(b.cfgs, config{spec, fl, s})
			}
		}
	}
	return b, nil
}

// mapSeeds derives n nonzero page-mapping seeds from the benchmark
// seed (splitmix64).
func mapSeeds(seed uint64, n int) []uint32 {
	out := make([]uint32, n)
	x := seed
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = uint32(z) | 1
	}
	return out
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) expectKey(c config) string {
	if b.wl.kind == measureSuite {
		return c.spec.Name
	}
	return c.String()
}

// check counts one operation and fails it if it errored, its
// conformance result was not clean, its exit status is not the
// expected one, or its statistics differ from their first run (stats
// is keyed by op; want, when non-nil, is what stats must equal
// instead).
func (b *bench) check(op string, c config, err error, clean bool, result uint32, stats, want []uint64) {
	b.attempted++
	key := op + ":" + c.String()
	if err != nil {
		b.fail("%s: %v", key, err)
		return
	}
	if !clean {
		b.fail("%s: conformance check reported diagnostics", key)
		return
	}
	ek := b.expectKey(c)
	exp, ok := b.expect[ek]
	if !ok && b.wl.kind == measureSuite {
		exp, ok = result, true
		b.expect[ek] = result
	}
	if !ok {
		b.fail("%s: no reference measurement to check the exit status against", key)
		return
	}
	if result != exp {
		b.fail("%s: exit status %d, want %d", key, result, exp)
		return
	}
	if want == nil {
		prev, seen := b.first[key]
		if !seen {
			b.first[key] = stats
			return
		}
		want = prev
	}
	if !slices.Equal(stats, want) {
		b.fail("%s: statistics %v, want %v", key, stats, want)
	}
}

// predictStats are a prediction's deterministic statistics. The tail
// from index 2 on is what the traced run must reproduce exactly.
func predictStats(p *experiment.Predicted) []uint64 {
	return []uint64{p.Cycles, p.TracedInstr, p.MemStalls, p.UTLBMisses, p.IdleInstr, p.Events, p.TraceWords}
}

func measureStats(m *experiment.Measured) []uint64 {
	return []uint64{m.Cycles, m.Instr, uint64(m.UTLBMisses)}
}

// reference measures, untimed, the untraced side of every prediction:
// its exit status is the one the prediction must reproduce, and its
// time and UTLB misses are what the prediction is judged against.
func (b *bench) reference() {
	if b.wl.kind != measureSuite {
		for _, c := range b.cfgs {
			m, err := experiment.Measure(c.spec, c.flavor, c.seed)
			b.attempted++
			if err != nil {
				b.fail("reference measure:%v: %v", c, err)
				continue
			}
			b.refs[c.String()] = m
			b.expect[c.String()] = m.Result
			b.origInstr += float64(m.Instr)
		}
	}
	if b.o.corrupt {
		k := b.expectKey(b.cfgs[0])
		b.expect[k]++
	}
}

// pass runs every configuration once through the public experiment
// entry points, as cmd/experiments does, records its wall time and heap
// allocation, and returns the wall time.
func (b *bench) pass() float64 {
	alloc := heapAllocMB()
	start := time.Now()
	first := !b.started
	b.started = true
	switch b.wl.kind {
	case measureSuite:
		r := experiment.NewRunner(workers)
		for _, c := range b.cfgs {
			r.StartMeasure(c.spec, c.flavor, c.seed)
		}
		for _, c := range b.cfgs {
			m, err := r.Measure(c.spec, c.flavor, c.seed)
			b.checkMeasure(c, m, err, first)
		}
		b.runner = r.Stats()
	default:
		for _, c := range b.cfgs {
			var p *experiment.Predicted
			var err error
			if b.wl.kind == predictStream {
				p, err = experiment.PredictWith(c.spec, c.flavor, c.seed, kernel.DefaultStream())
			} else {
				p, err = experiment.Predict(c.spec, c.flavor, c.seed)
			}
			b.checkPredict(c, p, err, first)
		}
	}
	wall := time.Since(start).Seconds()
	b.passWalls = append(b.passWalls, wall)
	b.passAllocs = append(b.passAllocs, heapAllocMB()-alloc)
	return wall
}

func (b *bench) checkMeasure(c config, m *experiment.Measured, err error, first bool) {
	if err != nil {
		b.check("measure", c, err, false, 0, nil, nil)
		return
	}
	b.check("measure", c, nil, true, m.Result, measureStats(m), nil)
	if first {
		b.origInstr += float64(m.Instr)
	}
}

// checkPredict checks a prediction; on the first pass it also checks
// that the set-up's pixie run reproduced the experiment's arithmetic
// stall term and accumulates the simulated accuracy metrics.
func (b *bench) checkPredict(c config, p *experiment.Predicted, err error, first bool) {
	if err != nil {
		b.check("predict", c, err, false, 0, nil, nil)
		return
	}
	b.check("predict", c, nil, p.Conformance.Clean(), p.Result, predictStats(p), nil)
	if !first {
		return
	}
	if a, ok := b.arith[c.spec.Name]; ok {
		b.attempted++
		if a != p.ArithStalls {
			b.fail("setup:%s: pixie count gives %d arithmetic stalls, the prediction charged %d",
				c.spec.Name, a, p.ArithStalls)
		}
	}
	m := b.refs[c.String()]
	if m == nil {
		return
	}
	if b.sim == nil {
		b.sim = ledger{}
	}
	n := float64(len(b.cfgs))
	b.sim.add("time_err_pct", 100*math.Abs(p.Seconds-m.Seconds)/m.Seconds/n)
	b.sim.add("utlb_err_pct", 100*math.Abs(float64(p.UTLBMisses)-float64(m.UTLBMisses))/
		math.Max(1, float64(m.UTLBMisses))/n)
	b.sim.add("time_dilation", float64(p.TracedCycles)/float64(m.Cycles)/n)
}

// repeat runs step, which returns its wall time in seconds, until the
// next run would end past --seconds, and never fewer than minPasses
// times.
func (b *bench) repeat(step func() float64) {
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	for n := 1; ; n++ {
		d := step()
		if n >= b.o.minPasses && time.Now().Add(time.Duration(d*float64(time.Second))).After(deadline) {
			return
		}
	}
}

func (b *bench) result() *result {
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.o.trace {
		for name, v := range b.perLayer() {
			res.Metrics[name] = metric{v, perLayerUnits[name]}
		}
		return res
	}
	pass := median(b.passWalls)
	res.Metrics["setup_s"] = metric{median(b.setupTotals), "s"}
	res.Metrics["pass_s"] = metric{pass, "s"}
	res.Metrics["orig_mips"] = metric{b.origInstr / pass / 1e6, "MIPS"}
	res.Metrics["alloc_mb"] = metric{median(b.passAllocs), "MB"}
	res.Metrics["ok_frac"] = metric{float64(b.attempted-b.failed) / float64(b.attempted), "frac"}
	return res
}

func (b *bench) detail() map[string]any {
	d := map[string]any{
		"configs":      len(b.cfgs),
		"pass_s":       b.passWalls,
		"pass_samples": len(b.passWalls),
		"setup_s":      b.setupTotals,
		"failures":     b.failures,
		"fail_frac":    float64(b.failed) / math.Max(1, float64(b.attempted)),
		"sim":          b.sim,
		// The highest percentile of pass_s with ten samples beyond
		// it; -1 when there are too few passes for one.
		"tail_pct":      tailPercentile(len(b.passWalls)),
		"workers":       workers,
		"setup_reps":    setupReps,
		"traced_pass_s": b.tracedWalls,
		"alloc_mb":      b.passAllocs,
		// Peak RSS depends on where the concurrent collector's cycles
		// fall: it moves by one 64 MB guest RAM between runs.
		"max_rss_mb": maxRSSMB(),
	}
	if tp := tailPercentile(len(b.passWalls)); tp >= 0 {
		d["pass_s_tail"] = percentile(b.passWalls, tp)
	}
	return d
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
