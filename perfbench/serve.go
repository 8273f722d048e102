package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"wmstream/internal/serve"
)

const (
	kindCompile = "compile"
	kindRun     = "run"
)

// stageSpans names the span recorded for each Server-Timing stage.
// The server's "compile" stage spans minic, acode and opt together.
var stageSpans = []struct{ stage, span string }{
	{"queue", "serve.queue"},
	{"coalesce", "serve.coalesce"},
	{"compile", "srv.compile"},
	{"sim", "sim.server"},
}

// traceReply records one HTTP exchange: a root span, the
// transport on either side of the server's total, the server span and
// its stages laid end to end from its start.  The server's remainder
// (decode, key hash, cache, encode) stays unattributed as serve.other.
func traceReply(tr *tracer, name string, req int64, r reply) {
	if tr == nil {
		return
	}
	root := tr.add(name, 0, req, r.start, r.lat)
	total := time.Duration(r.timing["total"] * 1e6)
	if total > r.lat {
		total = r.lat
	}
	half := (r.lat - total) / 2
	tr.add("serve.http", root, req, r.start, half)
	tr.add("serve.http", root, req, r.start.Add(half+total), r.lat-total-half)
	srv := tr.add("serve.other", root, req, r.start.Add(half), total)
	at := r.start.Add(half)
	for _, st := range stageSpans {
		if d, ok := r.timing[st.stage]; ok {
			dd := time.Duration(d * 1e6)
			tr.add(st.span, srv, req, at, dd)
			at = at.Add(dd)
		}
	}
}

// stageStats accumulates Server-Timing stages across replies for the
// serve.* per-layer metrics.
type stageStats struct {
	mu                     sync.Mutex
	n                      int
	http, total, bodyBytes float64
	stage                  map[string]float64
	hits, coalesced        int
}

func (s *stageStats) add(r reply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	total := r.timing["total"]
	s.total += total
	s.http += float64(r.lat)/1e6 - total
	s.bodyBytes += float64(len(r.body))
	if s.stage == nil {
		s.stage = map[string]float64{}
	}
	for _, st := range stageSpans {
		s.stage[st.stage] += r.timing[st.stage]
	}
	switch r.cache {
	case "hit":
		s.hits++
	case "coalesced":
		s.coalesced++
	}
}

// metrics writes the serve.* stage metrics (means per response).
func (s *stageStats) metrics(m map[string]float64) {
	n := float64(max(s.n, 1))
	listed := 0.0
	for _, st := range []string{"queue", "compile", "sim"} {
		m["serve."+st+"_ms"] = s.stage[st] / n
		listed += s.stage[st]
	}
	listed += s.stage["coalesce"]
	m["serve.http_ms"] = s.http / n
	m["serve.other_ms"] = (s.total - listed) / n
	m["serve.hit_frac"] = float64(s.hits) / n
	m["serve.coalesced_frac"] = float64(s.coalesced) / n
	m["serve.body_kb"] = s.bodyBytes / n / 1024
}

// requestBody encodes a /compile or /run request at a level.
func requestBody(src string, level int) []byte {
	b, err := json.Marshal(serve.Request{Source: src, Level: &level})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return b
}

// hotKey is one of serve-hot's fixed keys with its prefilled body.
type hotKey struct {
	kind  string
	prog  program
	level int
	body  []byte
	want  []byte
}

// serveHot prefills the 72 keys (nine programs × O0–O3 × /compile and
// /run) during set-up, then draws seeded requests over them: every
// request is a cache hit, so request handling is the whole cost.
func serveHot(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var keys []*hotKey
	for _, p := range e.progs {
		for l := 0; l <= 3; l++ {
			for _, k := range []string{kindCompile, kindRun} {
				keys = append(keys, &hotKey{kind: k, prog: p, level: l, body: requestBody(p.Source, l)})
			}
		}
	}
	var (
		rates, cycles []float64
		prev          [][]byte
	)
	srv, setup, err := setUp(e, func(s *server) error {
		rate, cyc, bodies, err := prefill(s, keys)
		if err != nil {
			return err
		}
		for i, b := range bodies {
			if prev != nil && !bytes.Equal(prev[i], b) {
				o.mismatch("prefill body of %s/%s/O%d differs between server instances", keys[i].kind, keys[i].prog.Name, keys[i].level)
			}
		}
		prev, cycles = bodies, cyc
		rates = append(rates, rate)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i, k := range keys {
		k.want = prev[i]
	}
	if err := checkListings(o, keys); err != nil {
		return nil, err
	}

	var stages stageStats
	m0, _, rerr := srv.runtimeStats()
	tc0, err := srv.translations()
	if err != nil {
		return nil, err
	}
	samples := hotLoop(e, srv, keys, o, &stages, e.tr, e.seconds)
	o.count(samples)
	m1, g1, _ := srv.runtimeStats()
	tc1, err := srv.translations()
	if err != nil {
		return nil, err
	}
	if tc1 != tc0 {
		o.mismatch("serve-hot: the translation cache moved (%v → %v) although every request was a cache hit", tc0, tc1)
	}
	o.e2e["setup_s"] = setup
	o.e2e["sim_minstr_per_s"] = median(rates)
	o.e2e["sim_cycles_geomean"] = geomean(cycles)
	loopMetrics(o.e2e, samples, len(keys), "requests")
	o.e2e["jobs_per_s"] = o.e2e["rps"]
	if stages.hits != stages.n {
		o.mismatch("serve-hot: hit fraction %d/%d, want 1", stages.hits, stages.n)
	}
	if e.tr != nil {
		if rerr != nil {
			return nil, rerr
		}
		stages.metrics(o.layer)
		o.layer["go.allocs_per_op"] = (m1 - m0) / float64(len(samples))
		o.layer["go.gc_cpu_frac"] = g1
		overhead, err := obsOverhead(e, srv, keys, o)
		if err != nil {
			return nil, err
		}
		o.layer["obs.overhead_frac"] = overhead
	}
	o.e2e["max_rss_mb"] = srv.stop()
	srv = nil

	if e.tr != nil {
		var bodies []replayBody
		for _, k := range keys {
			b := newBody(k.kind, k.prog, k.level, k.prog.Source)
			b.server = k.want
			bodies = append(bodies, b)
		}
		if err := replay(e, o, bodies); err != nil {
			return nil, err
		}
		attributionMetrics(e, o, map[string]bool{"request": true})
	}
	return o, nil
}

// obsOverhead measures the server's own tracing cost: the share of
// serve-hot throughput lost with tracing at its default against a
// server started with -trace-ring -1.  The two servers take turns in
// short windows, so drift in host speed falls on both alike.
func obsOverhead(e *env, on *server, keys []*hotKey, o *outcome) (float64, error) {
	off, _, err := startServer(e, false, "-trace-ring", "-1")
	if err != nil {
		return 0, err
	}
	defer off.stop()
	if _, _, _, err := prefill(off, keys); err != nil {
		return 0, err
	}
	const windows = 6
	var ok, secs [2]float64
	for w := range windows {
		srv := []*server{on, off}[w%2]
		// Both sides record client spans into a tracer that is dropped.
		samples := hotLoop(e, srv, keys, o, &stageStats{}, newTracer(), e.seconds/windows)
		for _, s := range samples {
			if s.ok {
				ok[w%2]++
			}
		}
		if n := len(samples); n > 0 {
			secs[w%2] += samples[n-1].done.Sub(samples[0].done.Add(-samples[0].lat)).Seconds()
		}
	}
	return 1 - (ok[0]/secs[0])/(ok[1]/secs[1]), nil
}

// hotLoop drives seeded cache-hit traffic for d and checks every body
// against the prefilled one.
func hotLoop(e *env, srv *server, keys []*hotKey, o *outcome, stages *stageStats, tr *tracer, d time.Duration) []sample {
	var mu sync.Mutex
	samples := closedLoop(d, func(i int64) sample {
		k := keys[splitmix(e.seed, i)%uint64(len(keys))]
		r, err := srv.do(http.MethodPost, "/"+k.kind, k.body)
		s := sample{lat: r.lat, done: r.start.Add(r.lat)}
		switch {
		case err != nil:
			mu.Lock()
			o.mismatch("%s: %v", k.kind, err)
			mu.Unlock()
		case r.status != http.StatusOK || !bytes.Equal(r.body, k.want):
			mu.Lock()
			o.mismatch("%s/%s/O%d: status %d, body differs from prefill: %v", k.kind, k.prog.Name, k.level, r.status, !bytes.Equal(r.body, k.want))
			mu.Unlock()
		default:
			s.ok = true
		}
		if err == nil {
			stages.add(r)
			traceReply(tr, "request", i, r)
		}
		return s
	})
	return samples
}

// prefill sends every key once, checks each /run output against the
// pinned one, and returns the server's simulation rate (simulated
// Minstr per second of its sim stage), the /run cycle counts and the
// bodies.  The /compile keys go first from two clients; the /run keys
// follow one at a time, so no simulation shares the cores with another
// request and the sim stage times the simulator alone.
func prefill(srv *server, keys []*hotKey) (float64, []float64, [][]byte, error) {
	bodies := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	instrs := make([]float64, len(keys))
	simMs := make([]float64, len(keys))
	cyc := make([]float64, len(keys))
	var compiles, runs []int
	for i, k := range keys {
		if k.kind == kindRun {
			runs = append(runs, i)
		} else {
			compiles = append(compiles, i)
		}
	}
	send := func(i int) {
		k := keys[i]
		r, err := srv.do(http.MethodPost, "/"+k.kind, k.body)
		switch {
		case err != nil:
			errs[i] = err
			return
		case r.status != http.StatusOK:
			errs[i] = fmt.Errorf("status %d: %s", r.status, clip(string(r.body)))
			return
		}
		bodies[i] = r.body
		if k.kind == kindRun {
			var rr serve.RunResponse
			if err := json.Unmarshal(r.body, &rr); err != nil {
				errs[i] = err
				return
			}
			if rr.Output != k.prog.Expect {
				errs[i] = fmt.Errorf("output %q, want %q", clip(rr.Output), clip(k.prog.Expect))
				return
			}
			instrs[i], simMs[i], cyc[i] = float64(rr.Instructions), r.timing["sim"], float64(rr.Cycles)
		}
	}
	forEach(len(compiles), func(j int) { send(compiles[j]) })
	for _, i := range runs {
		send(i)
	}
	var ti, tm float64
	var cycles []float64
	for i, k := range keys {
		if errs[i] != nil {
			return 0, nil, nil, fmt.Errorf("prefill %s/%s/O%d: %w", k.kind, k.prog.Name, k.level, errs[i])
		}
		if k.kind == kindRun {
			ti += instrs[i]
			tm += simMs[i]
			cycles = append(cycles, cyc[i])
		}
	}
	return ti / 1e6 / (tm / 1e3), cycles, bodies, nil
}

// checkListings compares each prefilled listing with an in-process
// compile of the same source through the layer packages.
func checkListings(o *outcome, keys []*hotKey) error {
	listings := map[string]string{} // the /compile and /run keys share one
	for _, k := range keys {
		id := fmt.Sprintf("%s/O%d", k.prog.Name, k.level)
		if _, ok := listings[id]; !ok {
			c, err := compileLayers(nil, 0, 0, k.prog.Source, k.level, true)
			if err != nil {
				return fmt.Errorf("in-process compile of %s: %w", id, err)
			}
			listings[id] = c.listing
		}
		var got struct {
			Listing string `json:"listing"`
		}
		if err := json.Unmarshal(k.want, &got); err != nil {
			return err
		}
		if got.Listing != listings[id] {
			o.mismatch("%s %s: served listing differs from in-process compile", k.kind, id)
		}
	}
	return nil
}
