package systrace_test

// End-to-end smoke test of the observability layer: one traced sed
// boot with the guest-PC sampler attached must leave a well-nested
// phase-span timeline (system_boot, then machine_run with the
// trace_drain doorbells inside it and the epoch-ring consumer's
// stream_consume spans beside it on their own goroutine) and a
// non-empty folded profile that attributes samples to kernel
// functions. A traced prediction's trace_analysis spans nest under
// stream_consume. This is the check scripts/check.sh runs as its obs
// smoke step.

import (
	"bytes"
	"strings"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/obj"
	obspkg "systrace/internal/obs"
	"systrace/internal/workload"
)

func TestObsSmoke(t *testing.T) {
	obspkg.Reset()
	spec, ok := workload.ByName("sed")
	if !ok {
		t.Fatal("no sed workload")
	}
	prof := obspkg.NewProfile()
	sys, _, err := experiment.Boot(spec, kernel.Ultrix, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.M.CPU.SetProfiler(4096, prof.Hit)
	if err := sys.Run(experiment.RunBudget); err != nil {
		t.Fatal(err)
	}

	tl := obspkg.Timeline()
	byName := map[string][]obspkg.SpanInfo{}
	for _, s := range tl {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range []string{"system_boot", "machine_run", "trace_drain"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %s span in timeline (%d spans total)", name, len(tl))
		}
	}
	boot := byName["system_boot"][0]
	run := byName["machine_run"][0]
	if boot.Open() || run.Open() {
		t.Fatalf("boot/run spans left open: %+v %+v", boot, run)
	}
	if boot.EndNs > run.StartNs {
		t.Errorf("system_boot [%d,%d] should close before machine_run starts at %d",
			boot.StartNs, boot.EndNs, run.StartNs)
	}
	// Every trace-drain analysis phase happens inside the machine run,
	// on the run's goroutine, directly nested under its span.
	if sys.Doorbells == 0 {
		t.Fatal("traced sed boot rang no doorbells")
	}
	for _, d := range byName["trace_drain"] {
		if d.Parent != run.ID {
			t.Errorf("trace_drain span %d has parent %d, want machine_run %d", d.ID, d.Parent, run.ID)
		}
		if d.GID != run.GID {
			t.Errorf("trace_drain span %d on goroutine %d, machine_run on %d", d.ID, d.GID, run.GID)
		}
		if d.Depth != run.Depth+1 {
			t.Errorf("trace_drain span %d at depth %d, want %d", d.ID, d.Depth, run.Depth+1)
		}
		if d.Open() || d.StartNs < run.StartNs || d.EndNs > run.EndNs {
			t.Errorf("trace_drain span %d [%d,%d] not inside machine_run [%d,%d]",
				d.ID, d.StartNs, d.EndNs, run.StartNs, run.EndNs)
		}
	}

	// The analysis program runs on the epoch-ring consumer: each
	// doorbell's epoch is one stream_consume span, on a goroutine other
	// than the machine's, inside machine_run.
	consumes := byName["stream_consume"]
	if uint64(len(consumes)) != sys.Doorbells {
		t.Errorf("%d stream_consume spans for %d doorbells", len(consumes), sys.Doorbells)
	}
	for _, c := range consumes {
		if c.GID == run.GID {
			t.Errorf("stream_consume span %d on the machine goroutine %d", c.ID, run.GID)
		}
		if c.Open() || c.StartNs < run.StartNs || c.EndNs > run.EndNs {
			t.Errorf("stream_consume span %d [%d,%d] not inside machine_run [%d,%d]",
				c.ID, c.StartNs, c.EndNs, run.StartNs, run.EndNs)
		}
	}

	if prof.Len() == 0 {
		t.Fatal("profiler took no samples")
	}
	procs := map[uint32]*obj.Executable{}
	for i, bp := range sys.Procs {
		procs[uint32(i+1)] = bp.Exe
	}
	var folded bytes.Buffer
	prof.WriteFolded(&folded, obspkg.NewImageResolver(sys.Kernel, procs))
	out := folded.String()
	if out == "" {
		t.Fatal("folded profile is empty")
	}
	if !strings.Contains(out, "kernel;") {
		t.Errorf("folded profile attributes nothing to the kernel:\n%.500s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("folded line %q is not \"stack value\"", line)
		}
	}

	// A traced prediction's analysis nests under the consumer's
	// per-epoch span, on the consumer goroutine, and overlaps the
	// machine run that produced the epoch.
	obspkg.Reset()
	if _, err := experiment.Predict(spec, kernel.Ultrix, 1); err != nil {
		t.Fatal(err)
	}
	tl = obspkg.Timeline()
	byID := map[uint64]obspkg.SpanInfo{}
	for _, s := range tl {
		byID[s.ID] = s
	}
	analyses := 0
	for _, a := range tl {
		if a.Name != "trace_analysis" {
			continue
		}
		analyses++
		c := byID[a.Parent]
		if c.Name != "stream_consume" || c.GID != a.GID {
			t.Errorf("trace_analysis span %d: parent %q on goroutine %d, want stream_consume on %d",
				a.ID, c.Name, c.GID, a.GID)
			continue
		}
		inside := false
		for _, r := range tl {
			if r.Name == "machine_run" && r.GID != c.GID &&
				r.StartNs <= c.StartNs && c.EndNs <= r.EndNs {
				inside = true
			}
		}
		if !inside {
			t.Errorf("stream_consume span %d is not inside a machine_run on another goroutine", c.ID)
		}
	}
	if analyses == 0 {
		t.Error("traced prediction left no trace_analysis span")
	}
}
