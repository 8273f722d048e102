package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"wmstream/internal/sim"
)

// paperSuiteN is the Livermore 5 size of the paper-suite workload.
const paperSuiteN = 100_000

// suitePrograms is the paper-suite work: the nine Table II programs and
// Livermore 5, each at O2 and O3.
func suitePrograms(progs []program) []program {
	return append(append([]program(nil), progs...), livermore5(paperSuiteN))
}

type pairResult struct {
	Name        string         `json:"name"`
	Level       int            `json:"level"`
	LatNs       int64          `json:"lat_ns"`
	SimNs       int64          `json:"sim_ns"`
	Cycles      int64          `json:"cycles"`
	Instrs      int64          `json:"instrs"`
	AcodeInstrs int            `json:"acode_instrs"`
	OptInstrs   int            `json:"opt_instrs"`
	Fires       map[string]int `json:"fires"`
	Err         string         `json:"err,omitempty"`
}

// suitePass is what one child process reports for one pass.
type suitePass struct {
	WallNs    int64        `json:"wall_ns"`
	Pairs     []pairResult `json:"pairs"`
	TransMiss int64        `json:"trans_miss"`
	TransHit  int64        `json:"trans_hit"`
	Mallocs   uint64       `json:"mallocs"`
	GCFrac    float64      `json:"gc_frac"`
	T0        int64        `json:"t0_unix_ns"`
	Spans     []span       `json:"spans,omitempty"`
}

// suitePassChild compiles and simulates the whole suite once, in a
// seeded order, and prints its suitePass as JSON.  It runs in a fresh
// process so that every pass pays translation and pool warm-up, as the
// paper's reproduction path (wmrepro) does.
func suitePassChild(e *env, pass int) int {
	work := suitePrograms(e.progs)
	type pair struct {
		p     program
		level int
	}
	var pairs []pair
	for _, p := range work {
		for _, l := range []int{2, 3} {
			pairs = append(pairs, pair{p, l})
		}
	}
	r := e.rng(int64(1000 + pass))
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	fmt.Println("ready")

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tc0 := sim.TranslationCacheStats()
	out := suitePass{}
	if e.tr != nil {
		out.T0 = e.tr.t0.UnixNano()
	}
	start := time.Now()
	root := e.tr.begin("suite", 0, int64(pass))
	for _, pr := range pairs {
		t0 := time.Now()
		res := pairResult{Name: pr.p.Name, Level: pr.level}
		c, err := compileLayers(e.tr, root, int64(pass), pr.p.Source, pr.level, false)
		if err == nil {
			res.AcodeInstrs, res.OptInstrs = c.acodeInstrs, c.optInstrs
			res.Fires = fires(c)
			s0 := time.Now()
			var sr simulated
			sr, err = runLayers(e.tr, root, int64(pass), c.prog)
			res.SimNs = time.Since(s0).Nanoseconds()
			res.Cycles, res.Instrs = sr.stats.Cycles, sr.stats.Instructions
			if err == nil && sr.output != pr.p.Expect {
				err = fmt.Errorf("output %q, want %q", clip(sr.output), clip(pr.p.Expect))
			}
		}
		if err != nil {
			res.Err = err.Error()
		}
		res.LatNs = time.Since(t0).Nanoseconds()
		out.Pairs = append(out.Pairs, res)
	}
	out.WallNs = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	tc1 := sim.TranslationCacheStats()
	out.TransMiss, out.TransHit = tc1.Misses-tc0.Misses, tc1.Hits-tc0.Hits
	out.Mallocs = ms1.Mallocs - ms0.Mallocs
	out.GCFrac = ms1.GCCPUFraction
	if e.tr != nil {
		e.tr.end(root)
		out.Spans = e.tr.snapshot()
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// fires reads the optimizer's per-pass fire counts (exact: they move
// only when code generation changes).
func fires(c *compiled) map[string]int {
	m := make(map[string]int, len(c.passes))
	for _, ps := range c.passes {
		m[ps.Name] = ps.Fires
	}
	return m
}

// runSuitePass starts one child pass and returns its report, the time
// from launch until the child was ready, and its peak RSS in MiB.
func runSuitePass(e *env, pass int) (*suitePass, time.Duration, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	args := []string{"-suite-pass", strconv.Itoa(pass), "-seed", strconv.FormatInt(e.seed, 10)}
	if e.tr != nil {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	var setup time.Duration
	var res suitePass
	var perr error
	lines := 0
	for sc.Scan() {
		lines++
		if lines == 1 {
			setup = time.Since(start)
			if sc.Text() != "ready" {
				perr = fmt.Errorf("suite pass: unexpected first line %q", sc.Text())
			}
			continue
		}
		if perr == nil {
			perr = json.Unmarshal(sc.Bytes(), &res)
		}
	}
	if err := sc.Err(); err != nil && perr == nil {
		perr = err
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, 0, fmt.Errorf("suite pass: %w", err)
	}
	if perr == nil && lines != 2 {
		perr = fmt.Errorf("suite pass: %d output lines, want 2", lines)
	}
	if perr != nil {
		return nil, 0, 0, perr
	}
	return &res, setup, maxRSSMiB(cmd.ProcessState), nil
}

func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// paperSuite runs suite passes, each in a fresh child process, until
// the measurement time is used (at least three passes, so the median
// and the cross-pass exactness check have material).
func paperSuite(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var (
		setups, walls, rss, rates, minstr []float64
		lats                              = map[string][]float64{}
		first                             map[string]pairResult
		allocs, gcFrac                    []float64
		transMiss, transHit, sims         float64
	)
	begin := time.Now()
	for pass := 0; pass < 3 || time.Since(begin) < e.seconds; pass++ {
		res, setup, mib, err := runSuitePass(e, pass)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		rss = append(rss, mib)
		walls = append(walls, float64(res.WallNs)/1e9)
		rates = append(rates, float64(len(res.Pairs))/(float64(res.WallNs)/1e9))
		var simNs, instrs float64
		cur := map[string]pairResult{}
		for _, p := range res.Pairs {
			o.attempted++
			key := fmt.Sprintf("%s/O%d", p.Name, p.Level)
			if p.Err != "" {
				o.failed++
				o.mismatch("%s: %s", key, p.Err)
				continue
			}
			lats[key] = append(lats[key], float64(p.LatNs)/1e6)
			simNs += float64(p.SimNs)
			instrs += float64(p.Instrs)
			cur[key] = p
		}
		minstr = append(minstr, instrs/1e6/(simNs/1e9))
		if first == nil {
			first = cur
		} else {
			for k, p := range cur {
				if err := sameExact(first[k], p); err != nil {
					o.mismatch("pass %d permutes the same work but %s: %v", pass, k, err)
				}
			}
		}
		allocs = append(allocs, float64(res.Mallocs)/float64(len(res.Pairs)))
		gcFrac = append(gcFrac, res.GCFrac)
		transMiss += float64(res.TransMiss)
		transHit += float64(res.TransHit)
		sims += float64(len(res.Pairs))
		if e.tr != nil {
			shift := time.Duration(res.T0 - e.tr.t0.UnixNano())
			mergeSpans(e.tr, res.Spans, shift)
		}
	}
	var cycles []float64
	for _, p := range first {
		cycles = append(cycles, float64(p.Cycles))
	}
	if len(first) != 2*len(suitePrograms(e.progs)) {
		o.mismatch("only %d of %d (program, level) pairs succeeded", len(first), 2*len(suitePrograms(e.progs)))
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["wall_s"] = median(walls)
	o.e2e["sim_minstr_per_s"] = median(minstr)
	o.e2e["sim_cycles_geomean"] = geomean(cycles)
	o.e2e["rps"] = median(rates)
	o.e2e["jobs_per_s"] = median(rates)
	o.e2e["max_rss_mb"] = median(rss)
	// A pair's latency is its median over the passes.  Over the raw
	// samples, a percentile would land on the slowest sample of one
	// pair (p90 of 20 pairs × n passes is the largest of the third
	// slowest pair), which is the noisiest statistic a run has.
	var pairLats []float64
	for _, l := range lats {
		pairLats = append(pairLats, median(l))
	}
	latencyMetrics(o.e2e, pairLats, "(program, level) pairs, each the median over passes")
	fmt.Printf("paper-suite: %d passes, wall_s %v\n", len(walls), walls)
	if e.tr != nil {
		o.layer["go.allocs_per_op"] = median(allocs)
		o.layer["go.gc_cpu_frac"] = median(gcFrac)
		o.layer["sim.translate_miss"] = transMiss / sims
		o.layer["sim.translate_hit"] = transHit / sims
		var bodies []replayBody
		for _, p := range suitePrograms(e.progs) {
			for _, l := range []int{2, 3} {
				bodies = append(bodies, newBody(kindRun, p, l, p.Source))
			}
		}
		if err := replay(e, o, bodies); err != nil {
			return nil, err
		}
		attributionMetrics(e, o, map[string]bool{"suite": true})
	}
	return o, nil
}

// sameExact compares the exact counts of two runs of the same pair.
func sameExact(a, b pairResult) error {
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs {
		return fmt.Errorf("cycles/instrs %d/%d vs %d/%d", a.Cycles, a.Instrs, b.Cycles, b.Instrs)
	}
	if a.AcodeInstrs != b.AcodeInstrs || a.OptInstrs != b.OptInstrs {
		return fmt.Errorf("acode/opt instrs %d/%d vs %d/%d", a.AcodeInstrs, a.OptInstrs, b.AcodeInstrs, b.OptInstrs)
	}
	for k, v := range a.Fires {
		if b.Fires[k] != v {
			return fmt.Errorf("pass %s fires %d vs %d", k, v, b.Fires[k])
		}
	}
	return nil
}

// mergeSpans adds a child process's spans to tr, shifted onto tr's
// clock and renumbered.
func mergeSpans(tr *tracer, spans []span, shift time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	base := len(tr.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		tr.spans = append(tr.spans, s)
	}
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:40] + "…" + s[len(s)-40:]
	}
	return s
}
