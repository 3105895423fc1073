package main

import (
	"fmt"
	"sync"
	"time"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/memsys"
	"systrace/internal/obj"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/tracecheck"
	"systrace/internal/verify"
)

// The traced run. It assembles the prediction pipeline of
// experiment.Predict / PredictWith — and, for the suite, the
// measurement of experiment.Measure — from each layer's public
// functions and times every call into a layer from outside. Each
// traced operation must reproduce its experiment counterpart exactly,
// or its layer numbers would describe a different program.

// perLayerUnits names every per-layer metric and its unit.
var perLayerUnits = map[string]string{
	"experiment.kernel_build_s":        "s",
	"experiment.program_build_s":       "s",
	"experiment.cfg_build_s":           "s",
	"pixie.count_s":                    "s",
	"experiment.runner.executed":       "count",
	"experiment.runner.dedup_frac":     "frac",
	"experiment.runner.parallel_eff":   "frac",
	"kernel.boot_s":                    "s",
	"cpu.instret":                      "count",
	"cpu.run_self_s":                   "s",
	"cpu.self_mips":                    "MIPS",
	"cpu.superblocks_built":            "count",
	"cpu.superblock_exits":             "count",
	"kernel.drain.doorbells":           "count",
	"kernel.drain.words":               "count",
	"kernel.stream.epochs":             "count",
	"kernel.stream.stall_cycles":       "cycles",
	"kernel.stream.compression_ratio":  "ratio",
	"kernel.stream.consumer_busy_s":    "s",
	"kernel.stream.consumer_idle_frac": "frac",
	"trace.parse_s":                    "s",
	"trace.parse_ns_per_word":          "ns/word",
	"trace.events":                     "count",
	"trace.dirt_words":                 "count",
	"trace.decode_s":                   "s",
	"tracecheck.check_s":               "s",
	"tracecheck.ns_per_word":           "ns/word",
	"tracecheck.checks":                "count",
	"tracecheck.diags":                 "count",
	"memsys.tracesim_s":                "s",
	"memsys.tracesim_ns_per_event":     "ns/event",
	"memsys.icache_stalls":             "cycles",
	"memsys.dcache_stalls":             "cycles",
	"memsys.wb_stalls":                 "cycles",
	"memsys.utlb_misses":               "count",
	"memsys.timing_instr":              "count",
	"memsys.timing_stall_cycles":       "cycles",
	"bench.unattributed_s":             "s",
	"bench.trace_overhead_frac":        "frac",
	"time_err_pct":                     "%",
	"utlb_err_pct":                     "%",
	"time_dilation":                    "ratio",
}

// tracer holds the conformance CFGs of the traced pipeline, derived
// once per image. Operations that use them run one at a time.
type tracer struct {
	cfgs map[*obj.Executable]*verify.CFG
}

func newTracer() *tracer { return &tracer{cfgs: map[*obj.Executable]*verify.CFG{}} }

func (t *tracer) cfg(e *obj.Executable) (*verify.CFG, error) {
	if g := t.cfgs[e]; g != nil {
		return g, nil
	}
	g, err := verify.NewCFG(e)
	if err != nil {
		return nil, err
	}
	t.cfgs[e] = g
	return g, nil
}

// checker assembles the conformance checker experiment.Predict uses:
// the kernel's CFG plus one per traced process image.
func (t *tracer) checker(name string, sys *kernel.System) (*tracecheck.Checker, error) {
	c := tracecheck.New(name)
	kg, err := t.cfg(sys.Kernel)
	if err != nil {
		return nil, err
	}
	c.SetKernelCFG(kg)
	for i, bp := range sys.Procs {
		if bp.Exe.Instr == nil {
			continue
		}
		g, err := t.cfg(bp.Exe)
		if err != nil {
			return nil, err
		}
		c.AddProcessCFG(i+1, g)
	}
	return c, nil
}

// cpuCounters reads the superblock counters a CPU exposes through
// RegisterMetrics.
func cpuCounters(reg *telemetry.Registry) (built, exits float64) {
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case "cpu_superblocks_built_total":
			built += m.Value
		case "cpu_superblock_exits_total":
			exits += m.Value
		}
	}
	return built, exits
}

// tracedOp is one traced operation's outcome.
type tracedOp struct {
	led    ledger
	stats  []uint64
	result uint32
	clean  bool
	err    error
}

// predict runs one prediction through the layer-assembled pipeline.
// Its stats are predictStats' equivalence tail: MemStalls, UTLBMisses,
// IdleInstr, Events, TraceWords.
func (t *tracer) predict(c config, stream bool) tracedOp {
	l := ledger{}
	op := tracedOp{led: l}
	start := time.Now()
	var timed time.Duration // covered by a timed layer call
	lap := func(name string, t0 time.Time) {
		d := time.Since(t0)
		l.addTime(name, d)
		timed += d
	}

	t0 := time.Now()
	sys, pid, err := experiment.Boot(c.spec, c.flavor, true, c.seed)
	lap("kernel.boot_s", t0)
	if err != nil {
		op.err = err
		return op
	}
	if stream {
		// Boot reads no drain setting; Run starts the epoch ring from
		// Cfg.Stream, exactly as PredictWith's boot would have set it.
		sys.Cfg.Stream = kernel.DefaultStream()
	}

	t0 = time.Now()
	p := trace.NewParser(trace.NewSideTable(sys.Kernel.Instr.Blocks))
	p.CountBlocks()
	for i, bp := range sys.Procs {
		if bp.Exe.Instr != nil {
			p.AddProcess(i+1, trace.NewSideTable(bp.Exe.Instr.Blocks))
		}
	}
	lap("trace.parse_s", t0)

	t0 = time.Now()
	policy := memsys.PolicySequential
	if c.flavor == kernel.Mach {
		policy = memsys.PolicyRandom
	}
	sim := memsys.NewTraceSim(memsys.DECstation5000(), policy, kernel.DefaultBoot(c.flavor).RAMBytes>>12, c.seed)
	lap("memsys.tracesim_s", t0)

	t0 = time.Now()
	chk, err := t.checker(c.String(), sys)
	lap("tracecheck.check_s", t0)
	if err != nil {
		op.err = err
		return op
	}
	reg := telemetry.New()
	sys.M.CPU.RegisterMetrics(reg)

	// Analysis callbacks. Two-phase, they run inside Run on this
	// goroutine; streaming, on the epoch-ring consumer, which Run
	// joins before it returns.
	var parseD, simD, checkD, decodeD, busy time.Duration
	var events uint64
	var perr, derr error
	buf := make([]trace.Event, 0, 1<<16)
	analyze := func(words []uint32) {
		if perr != nil {
			return
		}
		t0 := time.Now()
		evs, err := p.Parse(words, buf[:0])
		t1 := time.Now()
		parseD += t1.Sub(t0)
		if err != nil {
			perr = err
			return
		}
		events += uint64(len(evs))
		sim.Events(evs)
		simD += time.Since(t1)
	}
	if stream {
		dec := trace.NewDecoder()
		var words []uint32
		var epochStart time.Time
		sys.OnEpoch = func(enc []byte) {
			epochStart = time.Now()
			if derr != nil {
				return
			}
			words, derr = dec.Decode(enc, words[:0])
			t1 := time.Now()
			decodeD += t1.Sub(epochStart)
			if derr == nil {
				chk.Check(words)
				checkD += time.Since(t1)
			}
		}
		sys.OnTrace = func(w []uint32) {
			analyze(w)
			busy += time.Since(epochStart)
		}
	} else {
		sys.OnTrace = func(w []uint32) {
			t0 := time.Now()
			chk.Check(w)
			checkD += time.Since(t0)
			analyze(w)
		}
	}

	t0 = time.Now()
	err = sys.Run(experiment.RunBudget)
	runD := time.Since(t0)
	timed += runD
	t0 = time.Now()
	conf := chk.Finish()
	lap("tracecheck.check_s", t0)

	l.addTime("trace.parse_s", parseD)
	l.addTime("memsys.tracesim_s", simD)
	l.addTime("tracecheck.check_s", checkD)
	l.addTime("trace.decode_s", decodeD)
	if stream {
		l.addTime("cpu.run_self_s", runD)
		l.addTime("kernel.stream.consumer_busy_s", busy)
	} else {
		l.addTime("cpu.run_self_s", runD-parseD-simD-checkD)
	}
	l.addTime("_run_wall_s", runD)
	l.add("cpu.instret", float64(sys.M.CPU.Stat.Instret))
	built, exits := cpuCounters(reg)
	l.add("cpu.superblocks_built", built)
	l.add("cpu.superblock_exits", exits)
	l.add("kernel.drain.doorbells", float64(sys.Doorbells))
	l.add("kernel.drain.words", float64(sys.DrainedWords))
	l.add("kernel.stream.epochs", float64(sys.StreamStats.Epochs))
	l.add("kernel.stream.stall_cycles", float64(sys.StreamStats.StallCycles))
	l.add("_raw_bytes", float64(sys.StreamStats.RawBytes))
	l.add("_encoded_bytes", float64(sys.StreamStats.EncodedBytes))
	l.add("trace.events", float64(events))
	l.add("trace.dirt_words", float64(p.DirtWords))
	var checks int
	for _, n := range conf.Checks {
		checks += n
	}
	l.add("tracecheck.checks", float64(checks))
	l.add("tracecheck.diags", float64(len(conf.Diags)))
	l.add("memsys.icache_stalls", float64(sim.ICacheStalls))
	l.add("memsys.dcache_stalls", float64(sim.DCacheStalls))
	l.add("memsys.wb_stalls", float64(sim.WBStalls))
	l.add("memsys.utlb_misses", float64(sim.TLB.Misses))
	l.addTime("bench.unattributed_s", time.Since(start)-timed)

	switch {
	case err != nil:
		op.err = fmt.Errorf("traced predict %v: %w", c, err)
	case perr != nil:
		op.err = fmt.Errorf("traced predict %v: %w", c, perr)
	case derr != nil:
		op.err = fmt.Errorf("traced predict %v: compressed stream: %w", c, derr)
	}
	op.clean = conf.Clean()
	op.result = sys.ExitStatus(pid)
	op.stats = []uint64{sim.MemStalls(), sim.TLB.Misses, sim.IdleInstr, events, sys.DrainedWords}
	return op
}

// measure runs one direct measurement assembled from public calls; its
// stats are measureStats'.
func measure(c config) tracedOp {
	l := ledger{}
	op := tracedOp{led: l}
	start := time.Now()
	t0 := time.Now()
	sys, pid, err := experiment.Boot(c.spec, c.flavor, false, c.seed)
	boot := time.Since(t0)
	l.addTime("kernel.boot_s", boot)
	if err != nil {
		op.err = err
		return op
	}
	tm := memsys.NewTiming(memsys.DECstation5000())
	sys.M.AttachTiming(tm, tm)
	reg := telemetry.New()
	sys.M.CPU.RegisterMetrics(reg)
	t0 = time.Now()
	err = sys.Run(experiment.RunBudget)
	run := time.Since(t0)
	l.addTime("cpu.run_self_s", run)
	l.addTime("_run_wall_s", run)
	l.add("cpu.instret", float64(sys.M.CPU.Stat.Instret))
	built, exits := cpuCounters(reg)
	l.add("cpu.superblocks_built", built)
	l.add("cpu.superblock_exits", exits)
	l.add("memsys.timing_instr", float64(tm.Instructions()))
	l.add("memsys.timing_stall_cycles", float64(tm.StallCycles()))
	l.addTime("bench.unattributed_s", time.Since(start)-boot-run)
	if err != nil {
		op.err = fmt.Errorf("traced measure %v: %w", c, err)
	}
	op.clean = true
	op.result = sys.ExitStatus(pid)
	op.stats = []uint64{sys.M.Cycles(), sys.M.CPU.Stat.Instret, uint64(sys.UTLBCount())}
	return op
}

// tracedPass runs every configuration once through the traced
// pipeline — predictions one at a time, the suite on a pool of the
// Runner's size — and checks each against its experiment counterpart.
func (b *bench) tracedPass() float64 {
	start := time.Now()
	ops := make([]tracedOp, len(b.cfgs))
	switch b.wl.kind {
	case measureSuite:
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					ops[i] = measure(b.cfgs[i])
				}
			}()
		}
		for i := range b.cfgs {
			next <- i
		}
		close(next)
		wg.Wait()
	default:
		for i, c := range b.cfgs {
			ops[i] = b.tr.predict(c, b.wl.kind == predictStream)
		}
	}
	wall := time.Since(start).Seconds()
	b.tracedWalls = append(b.tracedWalls, wall)
	pass := ledger{}
	for i, op := range ops {
		c := b.cfgs[i]
		pass.merge(op.led)
		var want []uint64
		name := "traced-predict"
		if b.wl.kind == measureSuite {
			name = "traced-measure"
			want = b.first["measure:"+c.String()]
		} else if w := b.first["predict:"+c.String()]; w != nil {
			want = w[2:]
		}
		if want == nil && op.err == nil {
			op.err = fmt.Errorf("no untraced run of %v to compare with", c)
		}
		b.check(name, c, op.err, op.clean, op.result, op.stats, want)
	}
	b.layers = append(b.layers, pass)
	return wall
}

// calibrate times each suite job run alone, through
// experiment.Measure, for the Runner's parallel efficiency.
func (b *bench) calibrate() {
	for _, c := range b.cfgs {
		t0 := time.Now()
		m, err := experiment.Measure(c.spec, c.flavor, c.seed)
		b.aloneSum += time.Since(t0).Seconds()
		b.checkMeasure(c, m, err, false)
	}
}

// tracedPasses is the traced run: untraced and traced passes
// alternate, so the overhead of the traced pipeline is measured
// against passes run under the same conditions.
func (b *bench) tracedPasses() {
	if b.wl.kind == measureSuite {
		b.calibrate()
	}
	b.repeat(func() float64 { return b.pass() + b.tracedPass() })
}

// perLayer assembles the per-layer metrics: medians over traced passes
// of each pass's totals, set-up medians over repetitions, and the
// ratios derived from them.
func (b *bench) perLayer() ledger {
	out := medianLedger(b.layers)
	for k, v := range medianLedger(b.setupLayers) {
		out[k] = v
	}
	for k, v := range b.sim {
		out[k] = v
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["cpu.self_mips"] = div(out["cpu.instret"], out["cpu.run_self_s"]*1e6)
	out["kernel.stream.compression_ratio"] = div(out["_raw_bytes"], out["_encoded_bytes"])
	if out["kernel.stream.epochs"] > 0 {
		out["kernel.stream.consumer_idle_frac"] = 1 - div(out["kernel.stream.consumer_busy_s"], out["_run_wall_s"])
	}
	out["trace.parse_ns_per_word"] = div(out["trace.parse_s"]*1e9, out["kernel.drain.words"])
	out["tracecheck.ns_per_word"] = div(out["tracecheck.check_s"]*1e9, out["kernel.drain.words"])
	out["memsys.tracesim_ns_per_event"] = div(out["memsys.tracesim_s"]*1e9, out["trace.events"])
	pass := median(b.passWalls)
	out["bench.trace_overhead_frac"] = div(median(b.tracedWalls), pass) - 1
	if b.wl.kind == measureSuite {
		out["experiment.runner.executed"] = float64(b.runner.Executed)
		out["experiment.runner.dedup_frac"] = div(float64(b.runner.Deduplicated()), float64(b.runner.Requested))
		out["experiment.runner.parallel_eff"] = div(b.aloneSum, workers*pass)
	}
	final := ledger{}
	for name := range perLayerUnits {
		final[name] = out[name]
	}
	return final
}
