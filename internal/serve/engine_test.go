package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRunEngineSelection: every engine name is accepted and every
// engine produces the same bytes; the spellings of one engine share
// one cache entry; a retired or unknown engine is rejected with a
// message naming the valid set.
func TestRunEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var want []byte
	for _, c := range []struct{ engine, cache string }{
		{"", "miss"},
		{"auto", "hit"},
		{"translated", "hit"},
		{"reference", "miss"},
		{"reference", "hit"},
	} {
		req := &Request{Source: helloSrc}
		if c.engine != "" {
			req.Machine = &MachineSpec{Engine: c.engine}
		}
		res := post(t, ts, "/run", req)
		if res.status != http.StatusOK {
			t.Fatalf("engine %q: status %d, body %s", c.engine, res.status, res.body)
		}
		if res.cache != c.cache {
			t.Errorf("engine %q: X-Cache %q, want %q", c.engine, res.cache, c.cache)
		}
		if want == nil {
			want = res.body
			continue
		}
		if !bytes.Equal(res.body, want) {
			t.Errorf("engine %q diverged:\n%s\nwant:\n%s", c.engine, res.body, want)
		}
	}

	for _, engine := range []string{"fast", "quantum"} {
		res := post(t, ts, "/run", &Request{Source: helloSrc, Machine: &MachineSpec{Engine: engine}})
		if res.status != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d, want 400", engine, res.status)
		}
		var er ErrorResponse
		if err := json.Unmarshal(res.body, &er); err != nil {
			t.Fatalf("engine %q: bad error body: %v", engine, err)
		}
		if !strings.Contains(er.Error, "translated") || !strings.Contains(er.Error, "reference") {
			t.Errorf("engine %q: message should name the valid engines, got %q", engine, er.Error)
		}
	}
}

// TestEngineRunsMetric: served runs show up in
// wmserved_engine_runs_total under the canonical name of the engine
// that executed them (auto counts as translated), and the
// translation-cache families are exported.
func TestEngineRunsMetric(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A default-engine run, an auto run and one explicit reference run.
	// Distinct machine configs defeat the response cache so each run
	// executes.
	for _, spec := range []*MachineSpec{nil, {MemLatency: 17, Engine: "auto"}, {MemLatency: 23, Engine: "reference"}} {
		res := post(t, ts, "/run", &Request{Source: helloSrc, Machine: spec})
		if res.status != http.StatusOK {
			t.Fatalf("run: status %d, body %s", res.status, res.body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)

	for _, want := range []string{
		`wmserved_engine_runs_total{engine="translated"} 2`,
		`wmserved_engine_runs_total{engine="reference"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, `engine="auto"`) {
		t.Error(`metrics carry an engine="auto" label; spellings must be canonicalized`)
	}
	for _, family := range []string{
		"wmserved_translation_cache_entries",
		"wmserved_translation_cache_cap",
		"wmserved_translation_cache_hits_total",
		"wmserved_translation_cache_misses_total",
		"wmserved_translation_cache_evictions_total",
	} {
		if !strings.Contains(text, "\n"+family+" ") {
			t.Errorf("metrics missing family %s", family)
		}
	}
}

// TestJobBatchInterleaved: one worker with JobBatch=4 completes a
// burst of jobs whose results are identical to dedicated execution —
// the batch gate changes host scheduling, never simulation results.
func TestJobBatchInterleaved(t *testing.T) {
	// Heavy enough to span many slices (so the gate actually rotates),
	// light enough to finish promptly under the race detector.
	const batchSrc = `int main(void) {
    int i; double s;
    s = 0.0;
    for (i = 0; i < 200000; i++) s = s + i * 0.5;
    putd(s);
    return 0;
}`
	_, dedicated := newTestServer(t, Config{})
	want := post(t, dedicated, "/run", &Request{Source: batchSrc})
	if want.status != http.StatusOK {
		t.Fatalf("dedicated run: status %d, body %s", want.status, want.body)
	}
	var wantRR RunResponse
	if err := json.Unmarshal(want.body, &wantRR); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{JobWorkers: 1, JobBatch: 4})
	const jobs = 4
	ids := make([]string, jobs)
	for n := range ids {
		// Distinct tenants defeat nothing here (same program), but give
		// the fair scheduler several queues to rotate over.
		res, jr := submitJob(t, ts, &JobRequest{
			Request: Request{Source: batchSrc},
			Tenant:  fmt.Sprintf("t%d", n%2),
		})
		if res.status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %s", n, res.status, res.body)
		}
		ids[n] = jr.ID
	}
	for n, id := range ids {
		jr := waitTerminal(t, ts, id, 0)
		if jr.State != "done" {
			t.Fatalf("job %d state %q, want done (error %q)", n, jr.State, jr.Error)
		}
		if jr.Result == nil {
			t.Fatalf("job %d: no result", n)
		}
		if jr.Result.Output != wantRR.Output || jr.Result.Cycles != wantRR.Cycles {
			t.Errorf("job %d diverged from dedicated run: output=%q cycles=%d, want output=%q cycles=%d",
				n, jr.Result.Output, jr.Result.Cycles, wantRR.Output, wantRR.Cycles)
		}
	}
}
