// Command perfbench is the repository's benchmark.  It runs one of three
// workloads against the compiler, the simulator and the wmserved
// service, checks every output, and prints as its last line one JSON
// object with the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run):
//
//	perfbench -workload serve-hot -seed 1 -seconds 15 -trace 0
//
// The workloads are paper-suite (the Table II reproduction path, in
// process), serve-hot (every request a cache hit) and serve-cold (every
// request a new content address).  The serve workloads drive a real
// wmserved child process over HTTP; -wmserved names its binary.
// run.sh builds both binaries from the checkout and is the entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env is what one benchmark run needs.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	wmserved string
	work     string // scratch directory inside the checkout
	tr       *tracer
	progs    []program
	// compileSplit is the replay's minic/acode/opt share of compile
	// time, used to split the server's opaque compile stage.
	compileSplit map[string]float64
}

// rng returns a deterministic generator for one purpose of the run.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	// wrong lists output mismatches and exactness violations; any entry
	// makes the run incorrect (and is also counted in failed when it
	// belongs to an operation).
	wrong []string
	e2e   map[string]float64
	layer map[string]float64
}

func (o *outcome) mismatch(format string, args ...any) {
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	} else if len(o.wrong) == 20 {
		o.wrong = append(o.wrong, "...")
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"paper-suite": paperSuite,
	"serve-hot":   serveHot,
	"serve-cold":  serveCold,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "paper-suite, serve-hot or serve-cold")
		seed     = flag.Int64("seed", 1, "seed for the request sequence and salts")
		seconds  = flag.Float64("seconds", 10, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		wmserved = flag.String("wmserved", "", "path to the wmserved binary")
		work     = flag.String("work", ".bench_build", "scratch directory for replay stores and traces")
		pass     = flag.Int("suite-pass", -1, "internal: run one paper-suite pass in this process")
	)
	flag.Parse()
	progs, err := tableII()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		wmserved: *wmserved, work: *work, progs: progs}
	if *trace == 1 {
		e.tr = newTracer()
	}
	if *pass >= 0 {
		return suitePassChild(e, *pass)
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o, err := wl(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, w := range o.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", w)
	}
	defs := endToEnd
	values := o.e2e
	if e.tr != nil {
		// Layers a workload bypasses read zero.
		for _, name := range bypassable {
			if _, ok := o.layer[name]; !ok {
				o.layer[name] = 0
			}
		}
		// Against an untraced run, these show the benchmark's own
		// tracing overhead.
		fmt.Print("end-to-end with benchmark tracing on:")
		for _, d := range endToEnd {
			fmt.Printf(" %s=%.6g", d.name, o.e2e[d.name])
		}
		fmt.Println()
		defs, values = perLayer(), o.layer
		path := filepath.Join(e.work, fmt.Sprintf("trace-%s-%d.json", e.workload, e.seed))
		// The file keeps the first operations and the whole replay, so
		// it stays small enough to open; the metrics used every span.
		var keep []span
		for _, s := range e.tr.snapshot() {
			if s.Req < traceFileOps || s.Req >= replayReq {
				keep = append(keep, s)
			}
		}
		if err := writeChrome(path, keep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Println("trace:", path)
	}
	res, err := report(o, defs, values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

// traceFileOps is how many of the workload's operations the trace file
// keeps.
const traceFileOps = 2000

// bypassable are the per-layer metrics that read zero on a workload
// that does not exercise their layer (the HTTP stages on paper-suite,
// simulation on serve-hot's cache hits).
var bypassable = []string{
	"serve.http_ms", "serve.queue_ms", "serve.compile_ms", "serve.sim_ms",
	"serve.other_ms", "serve.hit_frac", "serve.coalesced_frac",
	"serve.body_kb", "obs.overhead_frac",
	"sim.translate_miss", "sim.translate_hit",
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; BENCHMARK.json
// declares the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"sim_cycles_geomean", "cycles"},
	{"rps", "req/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"p90_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
	{"max_rss_mb", "MiB"},
}

// report renders the result line.  Every declared metric must have
// been measured.
func report(o *outcome, defs []metricDef, values map[string]float64) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		metrics[d.name] = mv{v, d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(o.wrong) == 0, o.attempted, o.failed, metrics})
}
