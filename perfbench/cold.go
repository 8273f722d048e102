package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"wmstream/internal/serve"
)

// card is one serve-cold request before salting.
type card struct {
	kind  string
	prog  program
	level int
}

// coldDeck is the multiset serve-cold deals from: every Table II
// program's /compile at O0–O3 twice, and /run at O0–O3 for the six
// programs with short simulations — 72 + 24 = 96 cards, so about three
// requests in four are /compile.  Each deck is dealt in a seeded order.
func coldDeck(progs []program) []card {
	var deck []card
	for _, p := range progs {
		for l := 0; l <= 3; l++ {
			deck = append(deck, card{kindCompile, p, l}, card{kindCompile, p, l})
			if shortRuns[p.Name] {
				deck = append(deck, card{kindRun, p, l})
			}
		}
	}
	return deck
}

// dealer yields the i-th card of the seeded sequence of shuffled decks.
type dealer struct {
	seed  int64
	deck  []card
	mu    sync.Mutex
	perms map[int64][]int
}

func (d *dealer) card(i int64) card {
	n := int64(len(d.deck))
	d.mu.Lock()
	p, ok := d.perms[i/n]
	if !ok {
		p = rand.New(rand.NewSource(d.seed*7919 + i/n)).Perm(int(n))
		d.perms[i/n] = p
	}
	d.mu.Unlock()
	return d.deck[p[i%n]]
}

// coldSalt is request i's salt: unique within the run, seeded across
// runs, and a valid Mini-C int.
func coldSalt(seed, i int64) int64 {
	return int64(splitmix(seed, -1)%(1<<29)) + i
}

// serveCold sends every request with a new content address (a salted
// source), so the optimizer dominates, cache fills replace cache
// reads, and short simulations pay translation and machine set-up.
func serveCold(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	srv, setup, err := setUp(e, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	d := &dealer{seed: e.seed, deck: coldDeck(e.progs), perms: map[int64][]int{}}

	type listingSample struct {
		c       card
		src     string
		listing string
	}
	var (
		mu        sync.Mutex
		stages    stageStats
		runs      int
		instrs    float64
		simMs     float64
		pairCyc   = map[string][2]int64{} // program/level → cycles, instructions
		samples   []listingSample
		firstDeck = make([]replayBody, len(d.deck))
	)
	tc0, err := srv.translations()
	if err != nil {
		return nil, err
	}
	m0, _, rerr := srv.runtimeStats()
	loop := closedLoop(e.seconds, func(i int64) sample {
		c := d.card(i)
		src := salted(c.prog.Source, coldSalt(e.seed, i))
		body := requestBody(src, c.level)
		r, err := srv.do(http.MethodPost, "/"+c.kind, body)
		s := sample{lat: r.lat, done: r.start.Add(r.lat)}
		mu.Lock()
		defer mu.Unlock()
		if i < int64(len(firstDeck)) {
			firstDeck[i] = newBody(c.kind, c.prog, c.level, src)
		}
		if err != nil {
			o.mismatch("%s: %v", c.kind, err)
			return s
		}
		stages.add(r)
		traceReply(e.tr, "request", i, r)
		if i < int64(len(firstDeck)) {
			firstDeck[i].server = r.body
		}
		key := fmt.Sprintf("%s/O%d", c.prog.Name, c.level)
		switch {
		case r.status != http.StatusOK:
			o.mismatch("%s %s: status %d: %s", c.kind, key, r.status, clip(string(r.body)))
			return s
		case r.cache != "miss":
			o.mismatch("%s %s: X-Cache %q, want miss", c.kind, key, r.cache)
			return s
		}
		if c.kind == kindCompile {
			if splitmix(e.seed, i)%8 == 0 && len(samples) < 24 {
				var cr serve.CompileResponse
				if err := json.Unmarshal(r.body, &cr); err != nil {
					o.mismatch("%s: %v", key, err)
					return s
				}
				samples = append(samples, listingSample{c, src, cr.Listing})
			}
			s.ok = true
			return s
		}
		var rr serve.RunResponse
		if err := json.Unmarshal(r.body, &rr); err != nil {
			o.mismatch("%s: %v", key, err)
			return s
		}
		if rr.Output != c.prog.Expect {
			o.mismatch("run %s: output %q, want %q", key, clip(rr.Output), clip(c.prog.Expect))
			return s
		}
		if prev, ok := pairCyc[key]; ok && prev != [2]int64{rr.Cycles, rr.Instructions} {
			o.mismatch("run %s: cycles/instrs %v under one salt, %v under another", key, prev, [2]int64{rr.Cycles, rr.Instructions})
		}
		pairCyc[key] = [2]int64{rr.Cycles, rr.Instructions}
		runs++
		instrs += float64(rr.Instructions)
		simMs += r.timing["sim"]
		s.ok = true
		return s
	})
	tc1, err := srv.translations()
	if err != nil {
		return nil, err
	}
	m1, g1, _ := srv.runtimeStats()
	o.count(loop)
	// Each salted /run is a new image: it must translate exactly once.
	perRun := (tc1.miss - tc0.miss) / float64(max(runs, 1))
	if runs == 0 || perRun < 0.95 || perRun > 1.05 {
		o.mismatch("serve-cold: %.3f translation misses per /run, want about 1", perRun)
	}
	if stages.hits != 0 {
		o.mismatch("serve-cold: %d cache hits, want 0", stages.hits)
	}
	for _, ls := range samples {
		c, err := compileLayers(nil, 0, 0, ls.src, ls.c.level, true)
		if err != nil {
			return nil, err
		}
		if c.listing != ls.listing {
			o.mismatch("compile %s/O%d: served listing differs from in-process compile", ls.c.prog.Name, ls.c.level)
		}
	}
	var cycles []float64
	for _, v := range pairCyc {
		cycles = append(cycles, float64(v[0]))
	}
	o.e2e["setup_s"] = setup
	o.e2e["sim_minstr_per_s"] = instrs / 1e6 / (simMs / 1e3)
	o.e2e["sim_cycles_geomean"] = geomean(cycles)
	loopMetrics(o.e2e, loop, len(d.deck), "requests")
	o.e2e["jobs_per_s"] = o.e2e["rps"]
	o.e2e["max_rss_mb"] = srv.stop()
	srv = nil
	fmt.Printf("serve-cold: %d /run, %d listing samples checked, %.3f translation misses per /run\n", runs, len(samples), perRun)
	if e.tr != nil {
		if rerr != nil {
			return nil, rerr
		}
		stages.metrics(o.layer)
		o.layer["go.allocs_per_op"] = (m1 - m0) / float64(len(loop))
		o.layer["go.gc_cpu_frac"] = g1
		perSim(o.layer, tc0, tc1, runs)
		var bodies []replayBody
		for _, b := range firstDeck {
			if b.source != "" {
				bodies = append(bodies, b)
			}
		}
		if err := replay(e, o, bodies); err != nil {
			return nil, err
		}
		attributionMetrics(e, o, map[string]bool{"request": true})
	}
	return o, nil
}
