package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestSelfTest runs every workload of BENCHMARK.json once on sed, with
// tracing off and on, and checks that exactly the metrics it names are
// printed, with their units, and that every operation passed. It then
// injects one wrong expected exit status and checks that the
// correctness gate fails.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	slices.Sort(names)
	var defined []string
	for name := range workloads {
		defined = append(defined, name)
	}
	slices.Sort(defined)
	if !slices.Equal(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, defined)
	}

	short := func(wl string, traced, corrupt bool) *result {
		t.Helper()
		res, _, err := run(options{workload: wl, seed: 1, trace: traced,
			programs: []string{"sed"}, minPasses: 1, corrupt: corrupt})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", wl, traced, err)
		}
		return res
	}
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := short(wl, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d", wl, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", wl, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
		res := short(wl, false, true)
		if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: a wrong expected exit status went unnoticed: correct=%v failed=%d ok_frac=%v",
				wl, res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
		}
	}
}
