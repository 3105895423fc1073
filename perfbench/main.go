// Command perfbench is the repository's benchmark: the Table 2/3
// validation pipeline (boot → interpret → drain → parse → tracecheck →
// memsys) and its direct-measurement counterpart, driven through the
// public internal/experiment entry points.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload predict-twophase --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it assembles the same pipeline from each layer's
// public functions, times every call into a layer, and reports the
// per-layer metrics. The last line of standard output is the result
// object; the lines before it carry provenance and detail. See
// README.md in this directory for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"systrace/internal/kernel"
)

// workers is the measure-suite Runner's pool size: the two busy
// goroutines of the reference host, fixed so that results from hosts
// with more cores stay comparable in shape.
const workers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

type kind uint8

const (
	predictTwoPhase kind = iota
	predictStream
	measureSuite
)

type workloadDef struct {
	kind     kind
	flavor   kernel.Flavor // predict workloads only
	programs []string
	mapSeeds int // page-mapping seeds per program
}

var workloads = map[string]workloadDef{
	"predict-twophase": {predictTwoPhase, kernel.Ultrix, []string{"compress", "espresso"}, 1},
	"predict-stream":   {predictStream, kernel.Mach, []string{"compress", "espresso"}, 1},
	"measure-suite": {measureSuite, kernel.Ultrix, []string{"sed", "egrep", "yacc", "gcc",
		"compress", "espresso", "lisp", "eqntott", "fpppp", "doduc", "liv", "tomcatv"}, 3},
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	// programs, when set, replaces the workload's program list; the
	// self-test runs every workload on sed alone.
	programs []string
	// minPasses is the fewest timed passes a run makes, whatever
	// --seconds says.
	minPasses int
	// corrupt injects one wrong expected exit status, to show that
	// the correctness gate fails on bad output.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (predict-twophase, predict-stream, measure-suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed that selects the page-mapping seeds")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in host seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.minPasses = 3
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	emit(map[string]any{"provenance": provenance(o)})
	res, detail, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(map[string]any{"detail": detail})
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are marshalled
	}
	fmt.Println(string(b))
}

// run executes one benchmark invocation and returns its result and a
// detail record for humans.
func run(o options) (*result, map[string]any, error) {
	wl := workloads[o.workload]
	if o.programs != nil {
		wl.programs = o.programs
	}
	b, err := newBench(o, wl)
	if err != nil {
		return nil, nil, err
	}
	if err := b.setup(); err != nil {
		return nil, nil, err
	}
	b.reference()
	// The first pass fills the experiment package's own build, CFG and
	// pixie caches — work setup_s already times — so it is checked but
	// not timed.
	b.pass()
	b.passWalls, b.passAllocs = nil, nil
	if o.trace {
		b.tracedPasses()
	} else {
		b.repeat(b.pass)
	}
	return b.result(), b.detail(), nil
}

// ledger accumulates named quantities: per-layer seconds and counts.
type ledger map[string]float64

func (l ledger) add(name string, v float64) { l[name] += v }

func (l ledger) addTime(name string, d time.Duration) { l[name] += d.Seconds() }

func (l ledger) merge(o ledger) {
	for k, v := range o {
		l[k] += v
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianLedger takes, for every name, the median over the ledgers (a
// name missing from a ledger counts as 0 there).
func medianLedger(ls []ledger) ledger {
	out := ledger{}
	names := map[string]bool{}
	for _, l := range ls {
		for k := range l {
			names[k] = true
		}
	}
	for k := range names {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = l[k]
		}
		out[k] = median(xs)
	}
	return out
}

// tailPercentile is the highest percentile of n samples that has at
// least ten samples beyond it, or -1 when n is too small for one.
func tailPercentile(n int) float64 {
	if n < 11 {
		return -1
	}
	return 100 * float64(n-10) / float64(n)
}

// heapAllocMB is the cumulative heap allocation of the process in MiB.
func heapAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance fingerprints the host and the source: results are only
// comparable within one host.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
