package main

import (
	"fmt"
	"time"

	"systrace/internal/epoxie"
	"systrace/internal/experiment"
	"systrace/internal/isa"
	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/pixie"
	"systrace/internal/trace"
	"systrace/internal/userland"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// setup performs, setupReps times, every build, CFG derivation and
// pixie count run the workload's passes need, with the same public
// builders internal/experiment caches behind its entry points. Each
// repetition starts from nothing, so the first one is the cold-process
// cost; setup_s is the median.
func (b *bench) setup() error {
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		l, err := b.setupOnce()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setupTotals = append(b.setupTotals, time.Since(start).Seconds())
		b.setupLayers = append(b.setupLayers, l)
	}
	return nil
}

func (b *bench) setupOnce() (ledger, error) {
	l := ledger{}
	predict := b.wl.kind != measureSuite
	flavors := []kernel.Flavor{b.wl.flavor}
	if !predict {
		flavors = []kernel.Flavor{kernel.Ultrix, kernel.Mach}
	}
	// Kernels: untraced for measurement (and, on Ultrix, the pixie
	// runs), traced for prediction.
	type kkey struct {
		fl     kernel.Flavor
		traced bool
	}
	kernels := map[kkey]*obj.Executable{}
	buildKernel := func(k kkey) error {
		if kernels[k] != nil {
			return nil
		}
		t := time.Now()
		e, err := kernel.Build(kernel.Config{Flavor: k.fl, Traced: k.traced, Flow: epoxie.FlowOn})
		l.addTime("experiment.kernel_build_s", time.Since(t))
		kernels[k] = e
		return err
	}
	for _, fl := range flavors {
		if err := buildKernel(kkey{fl, false}); err != nil {
			return nil, err
		}
		if predict {
			if err := buildKernel(kkey{fl, true}); err != nil {
				return nil, err
			}
		}
	}
	if predict {
		if err := buildKernel(kkey{kernel.Ultrix, false}); err != nil {
			return nil, err
		}
	}

	progs := map[string]*userland.Program{}
	buildProg := func(name string, mod *m.Module) error {
		t := time.Now()
		p, err := userland.BuildFlow(name, []*m.Module{mod}, m.Options{}, epoxie.FlowOn)
		l.addTime("experiment.program_build_s", time.Since(t))
		progs[name] = p
		return err
	}
	for _, name := range b.wl.programs {
		spec, _ := workload.ByName(name)
		if err := buildProg(name, spec.Build()); err != nil {
			return nil, err
		}
	}
	if b.wl.kind == measureSuite || b.wl.flavor == kernel.Mach {
		if err := buildProg("ux", userland.UXServer()); err != nil {
			return nil, err
		}
	}
	if !predict {
		return l, nil
	}

	// Conformance CFGs of every traced image.
	images := []*obj.Executable{kernels[kkey{b.wl.flavor, true}]}
	for _, p := range progs {
		images = append(images, p.Instr)
	}
	for _, e := range images {
		t := time.Now()
		_, err := verify.NewCFG(e)
		l.addTime("experiment.cfg_build_s", time.Since(t))
		if err != nil {
			return nil, err
		}
	}

	// Pixie arithmetic-stall counts, always on Ultrix.
	for _, name := range b.wl.programs {
		spec, _ := workload.ByName(name)
		t := time.Now()
		stalls, err := pixieCount(spec, progs[name], kernels[kkey{kernel.Ultrix, false}])
		l.addTime("pixie.count_s", time.Since(t))
		if err != nil {
			return nil, err
		}
		b.arith[name] = stalls
	}
	return l, nil
}

// pixieCount runs the pixie basic-block counting binary of prog under
// the untraced Ultrix kernel and charges each block's floating-point
// latency by its execution count: the arithmetic-stall term of a
// prediction (§5.1).
func pixieCount(spec workload.Spec, prog *userland.Program, kexe *obj.Executable) (uint64, error) {
	res, err := pixie.RewriteWithBook(prog.Orig, pixie.ModeCount, trace.UserTraceVA)
	if err != nil {
		return 0, err
	}
	disk, err := kernel.BuildDiskImage(spec.Files)
	if err != nil {
		return 0, err
	}
	cfg := kernel.DefaultBoot(kernel.Ultrix)
	cfg.DiskImage = disk
	cfg.MapSeed = 1
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: res.Exe}}, cfg)
	if err != nil {
		return 0, err
	}
	if err := sys.Run(experiment.RunBudget); err != nil {
		return 0, fmt.Errorf("pixie count %s: %w", spec.Name, err)
	}
	var stalls uint64
	for bi := range prog.Orig.Blocks {
		blk := &prog.Orig.Blocks[bi]
		cnt, ok := sys.ReadUserWord(1, res.CountsVA+uint32(bi)*4)
		if !ok || cnt == 0 {
			continue
		}
		var lat uint64
		for k := int32(0); k < blk.NInstr; k++ {
			w := prog.Orig.Text[(blk.Addr-prog.Orig.TextBase)/4+uint32(k)]
			lat += uint64(isa.FPLatency(w))
		}
		stalls += uint64(cnt) * lat
	}
	return stalls, nil
}
