package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"wmstream/internal/durable"
	"wmstream/internal/opt"
	"wmstream/internal/serve"
)

// replayBody is one distinct request of a workload, replayed through
// the layer calls in the traced run.
type replayBody struct {
	kind   string
	prog   program
	level  int
	source string
	body   []byte // the /compile or /run request body
	server []byte // the response the server gave, when known
}

func newBody(kind string, p program, level int, src string) replayBody {
	return replayBody{kind: kind, prog: p, level: level, source: src, body: requestBody(src, level)}
}

// replayReq numbers replay spans apart from the workload's requests.
const replayReq = 1 << 40

// replay times each body through JSON decode → minic → acode → opt →
// listing → link → run → JSON encode, then the response cache and the
// durable store with records shaped like the body's job lifecycle.  It
// checks each output, compares the encoded response byte for byte with
// the server's, guards the exact counts and fills the per-layer
// metrics.
func replay(e *env, o *outcome, bodies []replayBody) error {
	tr := e.tr
	dir, err := scratchDir(e, "replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer store.Close()
	cache := serve.NewCache(64 << 20)

	type exact struct{ acode, opt int }
	var (
		srcBytes         float64
		acodeN, optN     float64
		cycles, instrs   float64
		compiles         float64
		passTime         = map[string]time.Duration{}
		passFires        = map[string]int{}
		rounds, stdFires int
		byPair           = map[string]exact{}
	)
	for i, b := range bodies {
		req := int64(replayReq + i)
		root := tr.begin("replay", 0, req)
		var r serve.Request
		tr.timed("serve.decode", root, req, func() { err = json.Unmarshal(b.body, &r) })
		if err != nil || r.Level == nil {
			return fmt.Errorf("replay decode: %v", err)
		}
		c, err := compileLayers(tr, root, req, r.Source, *r.Level, true)
		if err != nil {
			return fmt.Errorf("replay %s/O%d: %w", b.prog.Name, b.level, err)
		}
		srcBytes += float64(len(r.Source))
		compiles++
		acodeN += float64(c.acodeInstrs)
		optN += float64(c.optInstrs)
		key := fmt.Sprintf("%s/O%d", b.prog.Name, b.level)
		if prev, ok := byPair[key]; ok && prev != (exact{c.acodeInstrs, c.optInstrs}) {
			o.mismatch("%s: acode/opt instrs %v for one request, %v for another of the same program", key, prev, exact{c.acodeInstrs, c.optInstrs})
		}
		byPair[key] = exact{c.acodeInstrs, c.optInstrs}
		for _, ps := range c.passes {
			if ps.Name == "[standard]" {
				stdFires += ps.Fires
				rounds += ps.Rounds
				continue
			}
			passTime[ps.Name] += ps.Time
			passFires[ps.Name] += ps.Fires
		}
		var resp any = serve.CompileResponse{Listing: c.listing}
		if b.kind == kindRun {
			sr, err := runLayers(tr, root, req, c.prog)
			if err != nil {
				tr.end(root)
				return fmt.Errorf("replay %s: %w", key, err)
			}
			if sr.output != b.prog.Expect {
				o.mismatch("replay %s: output %q, want %q", key, clip(sr.output), clip(b.prog.Expect))
			}
			st := sr.stats
			cycles += float64(st.Cycles)
			instrs += float64(st.Instructions)
			resp = serve.RunResponse{Listing: c.listing, Cycles: st.Cycles, Instructions: st.Instructions,
				MemReads: st.MemReads, MemWrites: st.MemWrites, StreamElems: st.StreamElems, Output: sr.output}
		}
		var enc []byte
		tr.timed("serve.encode", root, req, func() { enc, err = json.Marshal(resp) })
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		if b.server != nil && !bytes.Equal(enc, b.server) {
			o.mismatch("replay %s %s: in-process response differs from the served body", b.kind, key)
		}

		k := serve.Key(sha256.Sum256(append([]byte(b.kind+"\x00"), b.body...)))
		tr.timed("serve.cache_put", root, req, func() { cache.Put(k, enc) })
		var hit bool
		tr.timed("serve.cache_get", root, req, func() { _, hit = cache.Get(k) })
		if !hit {
			o.mismatch("replay %s: cache lost a fresh entry", key)
		}

		id := fmt.Sprintf("replay-%d", i)
		for _, rec := range []durable.JobRecord{
			{Seq: int64(i + 1), ID: id, State: "queued", Tenant: "bench", Request: b.body},
			{Seq: int64(i + 1), ID: id, State: "running", Tenant: "bench", Gen: 1, Attempt: 1},
			{Seq: int64(i + 1), ID: id, State: "done", Tenant: "bench", Gen: 2, Attempt: 1, Result: enc},
		} {
			tr.timed("durable.put", root, req, func() { err = store.Put(rec) })
			if err != nil {
				tr.end(root)
				return fmt.Errorf("durable put: %w", err)
			}
		}
		blob, at, err := checkpointBlob(c.prog)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", key, err)
		}
		tr.timed("durable.checkpoint", root, req, func() { _, err = store.SaveCheckpoint(blob, at) })
		if err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		tr.end(root)
	}

	spans := tr.snapshot()
	sum, cnt := map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		if s.Req >= replayReq {
			sum[s.Name] += s.End - s.Start
			cnt[s.Name]++
		}
	}
	meanS := func(name string) float64 {
		if cnt[name] == 0 {
			return 0
		}
		return sum[name].Seconds() / float64(cnt[name])
	}
	m := o.layer
	m["minic.s"] = meanS("minic")
	m["minic.bytes_per_s"] = srcBytes / sum["minic"].Seconds()
	m["acode.s"] = meanS("acode")
	m["acode.instrs"] = acodeN
	m["opt.s"] = meanS("opt")
	m["opt.instrs"] = optN
	for _, p := range opt.AllPasses() {
		m["opt.pass."+p.Name()+".s"] = passTime[p.Name()].Seconds() / compiles
		m["opt.pass."+p.Name()+".fires"] = float64(passFires[p.Name()])
	}
	m["opt.pass.standard.fires"] = float64(stdFires)
	m["opt.pass.standard.rounds"] = float64(rounds)
	m["rtl.listing_s"] = meanS("rtl.listing")
	m["sim.link_s"] = meanS("sim.link")
	m["sim.run_s"] = meanS("sim.run")
	m["sim.cycles"] = cycles
	m["sim.instrs"] = instrs
	m["serve.decode_us"] = meanS("serve.decode") * 1e6
	m["serve.encode_us"] = meanS("serve.encode") * 1e6
	m["serve.cache_get_us"] = meanS("serve.cache_get") * 1e6
	m["serve.cache_put_us"] = meanS("serve.cache_put") * 1e6
	m["durable.put_us"] = meanS("durable.put") * 1e6
	m["durable.checkpoint_us"] = meanS("durable.checkpoint") * 1e6
	m["durable.bytes_per_job"] = float64(store.Bytes()) / float64(max(len(bodies), 1))
	// The server's compile stage covers minic, acode and opt together;
	// the replay's proportions split it for the attribution.
	e.compileSplit = map[string]float64{}
	total := (sum["minic"] + sum["acode"] + sum["opt"]).Seconds()
	for _, l := range []string{"minic", "acode", "opt"} {
		if total > 0 {
			e.compileSplit[l] = sum[l].Seconds() / total
		}
	}
	fmt.Printf("replay: %d distinct bodies, %d compiles\n", len(bodies), int(compiles))
	return nil
}

// attributionMetrics computes unattributed_frac over the workload's
// end-to-end spans and prints each layer's share of their wall time.
func attributionMetrics(e *env, o *outcome, roots map[string]bool) {
	a := attribute(e.tr.snapshot(), roots)
	if d, ok := a.Layers["compile"]; ok {
		delete(a.Layers, "compile")
		for l, f := range e.compileSplit {
			a.Layers[l] += time.Duration(f * float64(d))
		}
	}
	o.layer["unattributed_frac"] = a.Unattrib
	type share struct {
		layer string
		frac  float64
	}
	var shares []share
	for l, d := range a.Layers {
		shares = append(shares, share{l, d.Seconds() / a.Wall.Seconds()})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	fmt.Printf("attribution over %d end-to-end spans (%.3fs):", a.Roots, a.Wall.Seconds())
	for _, s := range shares {
		fmt.Printf(" %s %.1f%%", s.layer, 100*s.frac)
	}
	fmt.Printf(", unattributed %.1f%%\n", 100*a.Unattrib)
	if len(shares) > 0 {
		fmt.Printf("dominant layer: %s (%.1f%%)\n", shares[0].layer, 100*shares[0].frac)
	}
}

// perLayer lists the traced run's metrics; BENCHMARK.json declares the
// same names.
func perLayer() []metricDef {
	defs := []metricDef{
		{"minic.s", "s"}, {"minic.bytes_per_s", "B/s"},
		{"acode.s", "s"}, {"acode.instrs", "count"},
		{"opt.s", "s"}, {"opt.instrs", "count"},
	}
	for _, p := range opt.AllPasses() {
		defs = append(defs, metricDef{"opt.pass." + p.Name() + ".s", "s"}, metricDef{"opt.pass." + p.Name() + ".fires", "count"})
	}
	return append(defs, []metricDef{
		{"opt.pass.standard.fires", "count"}, {"opt.pass.standard.rounds", "count"},
		{"rtl.listing_s", "s"},
		{"sim.link_s", "s"}, {"sim.run_s", "s"}, {"sim.cycles", "cycles"}, {"sim.instrs", "count"},
		{"sim.translate_miss", "count"}, {"sim.translate_hit", "count"},
		{"serve.http_ms", "ms"}, {"serve.queue_ms", "ms"}, {"serve.compile_ms", "ms"},
		{"serve.sim_ms", "ms"}, {"serve.other_ms", "ms"},
		{"serve.decode_us", "us"}, {"serve.encode_us", "us"},
		{"serve.cache_get_us", "us"}, {"serve.cache_put_us", "us"},
		{"serve.hit_frac", "frac"}, {"serve.coalesced_frac", "frac"},
		{"serve.body_kb", "KiB"},
		{"durable.put_us", "us"}, {"durable.checkpoint_us", "us"}, {"durable.bytes_per_job", "B"},
		{"obs.overhead_frac", "frac"},
		{"go.allocs_per_op", "count"}, {"go.gc_cpu_frac", "frac"},
		{"unattributed_frac", "frac"},
	}...)
}
