package experiment_test

import (
	"sync"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
)

// measureCounts is every simulated figure of one direct measurement:
// the machine's totals plus each memsys.Timing counter.
type measureCounts struct {
	Cycles, Instr                       uint64
	UTLBMisses, Result                  uint32
	IAccesses, IMisses                  uint64
	DAccesses, DMisses                  uint64
	WBWrites, WBStalls                  uint64
	ICacheStalls, DCacheStalls          uint64
	UncachedStalls, FPStalls            uint64
	FPOverlapped, ExcStalls             uint64
	KernelInstr, KernelStalls           uint64
	UserInstr, UserStalls               uint64
	TimingInstr, TimingStalls, WBCycles uint64
}

func countsOf(m *experiment.Measured) measureCounts {
	t := m.Timing
	return measureCounts{
		Cycles: m.Cycles, Instr: m.Instr, UTLBMisses: m.UTLBMisses, Result: m.Result,
		IAccesses: t.IC.Accesses, IMisses: t.IC.Misses,
		DAccesses: t.DC.Accesses, DMisses: t.DC.Misses,
		WBWrites: t.WB.Writes, WBStalls: t.WBStalls,
		ICacheStalls: t.ICacheStalls, DCacheStalls: t.DCacheStalls,
		UncachedStalls: t.UncachedStalls, FPStalls: t.FPStalls,
		FPOverlapped: t.FPOverlapped, ExcStalls: t.ExcStalls,
		KernelInstr: t.KernelInstr, KernelStalls: t.KernelStalls,
		UserInstr: t.UserInstr, UserStalls: t.UserStalls,
		TimingInstr: t.Instructions(), TimingStalls: t.StallCycles(), WBCycles: t.WB.StallCycles,
	}
}

// TestMeasureGolden pins the direct measurement — the untraced run
// under memsys.Timing that every Table 2/3 prediction is checked
// against — to values the per-Step interpreter produces, which the
// batched observed path must reproduce exactly. sed/Ultrix covers the
// integer path with heavy uncached traffic; doduc/Mach covers the
// floating-point stalls, their overlap with the write buffer, and
// Mach's random page mapping. Any change to which events the machine
// emits, in which order, or what the model charges for them moves at
// least one of these figures.
func TestMeasureGolden(t *testing.T) {
	for _, tc := range []struct {
		wl     string
		flavor kernel.Flavor
		want   measureCounts
	}{
		{"sed", kernel.Ultrix, measureCounts{
			Cycles: 4226900, Instr: 3365003, UTLBMisses: 1, Result: 678,
			IAccesses: 3365003, IMisses: 1393, DAccesses: 270731, DMisses: 1629,
			WBWrites: 31065, WBStalls: 26162,
			ICacheStalls: 20895, DCacheStalls: 24435,
			UncachedStalls: 788175, FPStalls: 0, FPOverlapped: 0, ExcStalls: 2230,
			KernelInstr: 1264753, KernelStalls: 852402, UserInstr: 2100250, UserStalls: 9495,
			TimingInstr: 3365003, TimingStalls: 861897, WBCycles: 26162,
		}},
		{"doduc", kernel.Mach, measureCounts{
			Cycles: 4540759, Instr: 3133884, UTLBMisses: 6, Result: 191002,
			IAccesses: 3133884, IMisses: 1531, DAccesses: 478579, DMisses: 1018,
			WBWrites: 182266, WBStalls: 33772,
			ICacheStalls: 22965, DCacheStalls: 15270,
			UncachedStalls: 3630, FPStalls: 1328518, FPOverlapped: 23819, ExcStalls: 2720,
			KernelInstr: 277769, KernelStalls: 59697, UserInstr: 2856115, UserStalls: 1347178,
			TimingInstr: 3133884, TimingStalls: 1406875, WBCycles: 33772,
		}},
	} {
		t.Run(tc.wl+"/"+tc.flavor.String(), func(t *testing.T) {
			m, err := experiment.Measure(specsFor(t, tc.wl)[0], tc.flavor, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := countsOf(m); got != tc.want {
				t.Errorf("measurement moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestConcurrentMeasureSameImage runs direct measurements of one image
// at once — two on the same map seed, two on others — the way a
// Runner's workers do. They share the cached kernel and program
// images, so any write to shared state shows up here under -race, and
// each result must equal a serial run of the same seed.
func TestConcurrentMeasureSameImage(t *testing.T) {
	spec := specsFor(t, "sed")[0]
	seeds := []uint32{1, 1, 2, 3}
	got := make([]*experiment.Measured, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = experiment.Measure(spec, kernel.Ultrix, seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("measure %d (seed %d): %v", i, seed, errs[i])
		}
		want, err := experiment.Measure(spec, kernel.Ultrix, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := countsOf(got[i]), countsOf(want); g != w {
			t.Errorf("concurrent measure %d (seed %d) differs from serial:\n got  %+v\n want %+v", i, seed, g, w)
		}
	}
}
