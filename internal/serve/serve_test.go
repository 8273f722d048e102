package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wmstream"
)

// wmstreamLevelOptions spells out a canonical level as explicit wire
// options.
func wmstreamLevelOptions(level int) Options {
	o := wmstream.LevelOptions(level)
	return Options{
		Standard:            o.Standard,
		Recurrence:          o.Recurrence,
		Stream:              o.Stream,
		StrengthReduce:      o.StrengthReduce,
		Combine:             o.Combine,
		MinTrip:             o.MinTrip,
		MaxRecurrenceDegree: o.MaxRecurrenceDegree,
	}
}

// newTestServer builds a Server plus an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

type reply struct {
	status int
	cache  string // X-Cache header
	retry  string // Retry-After header
	body   []byte
}

func post(t *testing.T, ts *httptest.Server, endpoint string, req *Request) reply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return postRaw(t, ts, endpoint, body)
}

func postRaw(t *testing.T, ts *httptest.Server, endpoint string, body []byte) reply {
	t.Helper()
	resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", endpoint, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Cache"),
		retry:  resp.Header.Get("Retry-After"),
		body:   b,
	}
}

func intp(n int) *int { return &n }

const helloSrc = `int main(void) { int i, s; s = 0; for (i = 0; i < 10; i++) s = s + i; puti(s); return 0; }`

// streamSrc exercises the streaming path so /run responses carry
// nonzero stream counters.
const streamSrc = `double a[64];
int main(void) {
    int i; double s;
    for (i = 0; i < 64; i++) a[i] = i * 1.0;
    s = 0.0;
    for (i = 0; i < 64; i++) s = s + a[i];
    putd(s);
    return 0;
}`

func TestCompileMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &Request{Source: helloSrc, Level: intp(2)}

	cold := post(t, ts, "/compile", req)
	if cold.status != http.StatusOK {
		t.Fatalf("cold: status %d, body %s", cold.status, cold.body)
	}
	if cold.cache != "miss" {
		t.Fatalf("cold: X-Cache = %q, want miss", cold.cache)
	}
	var cr CompileResponse
	if err := json.Unmarshal(cold.body, &cr); err != nil {
		t.Fatalf("cold: bad JSON: %v", err)
	}
	if !strings.Contains(cr.Listing, ".func main") {
		t.Fatalf("cold: listing missing main:\n%s", cr.Listing)
	}

	hit := post(t, ts, "/compile", req)
	if hit.status != http.StatusOK || hit.cache != "hit" {
		t.Fatalf("hit: status %d X-Cache %q, want 200 hit", hit.status, hit.cache)
	}
	if !bytes.Equal(cold.body, hit.body) {
		t.Fatalf("hit body differs from cold body:\ncold: %s\nhit:  %s", cold.body, hit.body)
	}
}

// TestByteIdenticalAcrossLevels pins the core cache-soundness claim:
// for every optimization level and both endpoints, the cached response
// is byte-identical to the cold one.
func TestByteIdenticalAcrossLevels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, endpoint := range []string{"/compile", "/run"} {
		for level := 0; level <= 3; level++ {
			req := &Request{Source: streamSrc, Level: intp(level)}
			cold := post(t, ts, endpoint, req)
			if cold.status != http.StatusOK || cold.cache != "miss" {
				t.Fatalf("%s O%d cold: status %d X-Cache %q, body %s",
					endpoint, level, cold.status, cold.cache, cold.body)
			}
			for n := 0; n < 3; n++ {
				hit := post(t, ts, endpoint, req)
				if hit.status != http.StatusOK || hit.cache != "hit" {
					t.Fatalf("%s O%d hit %d: status %d X-Cache %q", endpoint, level, n, hit.status, hit.cache)
				}
				if !bytes.Equal(cold.body, hit.body) {
					t.Fatalf("%s O%d: cached body differs from cold", endpoint, level)
				}
			}
		}
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	res := post(t, ts, "/run", &Request{Source: helloSrc})
	if res.status != http.StatusOK {
		t.Fatalf("status %d, body %s", res.status, res.body)
	}
	var rr RunResponse
	if err := json.Unmarshal(res.body, &rr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rr.Output != "45" {
		t.Fatalf("output %q, want 45", rr.Output)
	}
	if rr.Cycles <= 0 || rr.Instructions <= 0 {
		t.Fatalf("missing stats: cycles=%d instructions=%d", rr.Cycles, rr.Instructions)
	}

	// Distinct machine config must be a distinct cache entry with its
	// own simulation result.
	slow := post(t, ts, "/run", &Request{Source: helloSrc, Machine: &MachineSpec{MemLatency: 40}})
	if slow.status != http.StatusOK || slow.cache != "miss" {
		t.Fatalf("slow machine: status %d X-Cache %q", slow.status, slow.cache)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: 256})
	cases := []struct {
		name   string
		body   []byte
		status int
	}{
		{"bad json", []byte(`{"source": 12`), http.StatusBadRequest},
		{"missing source", []byte(`{}`), http.StatusBadRequest},
		{"level out of range", []byte(`{"source":"int main(void){return 0;}","level":7}`), http.StatusBadRequest},
		{"source too large", []byte(fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 300))), http.StatusRequestEntityTooLarge},
		{"compile error", []byte(`{"source":"int main(void){ return y; }"}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := postRaw(t, ts, "/compile", tc.body)
			if res.status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", res.status, tc.status, res.body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(res.body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body not ErrorResponse: %s", res.body)
			}
		})
	}

	// The compile error must carry structured diagnostics.
	res := postRaw(t, ts, "/compile", []byte(`{"source":"int main(void){ return y; }"}`))
	var er ErrorResponse
	if err := json.Unmarshal(res.body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Diagnostics) == 0 || er.Diagnostics[0].Severity != "error" {
		t.Fatalf("want error diagnostics, got %+v", er.Diagnostics)
	}
}

// TestSingleflightCollapse holds the one real compile hostage while N
// identical requests pile up, then verifies exactly one execution
// served all of them with identical bytes.
func TestSingleflightCollapse(t *testing.T) {
	const n = 16
	var executions atomic.Int64
	var entered atomic.Int64
	release := make(chan struct{})
	srv, _ := newTestServer(t, Config{
		CompileHook: func(Key) {
			executions.Add(1)
			<-release
		},
	})
	// Count arrivals at the handler so the leader is released only
	// after every request is inside the server.
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		srv.ServeHTTP(w, r)
	}))
	defer counting.Close()

	req := &Request{Source: helloSrc, Level: intp(3)}
	results := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = post(t, counting, "/compile", req)
		}(i)
	}
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the last arrivals reach the flight group
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	var misses, coalesced int
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d: body differs from request 0", i)
		}
		switch r.cache {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		case "hit": // a straggler that arrived after the fill is fine
		default:
			t.Fatalf("request %d: X-Cache %q", i, r.cache)
		}
	}
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (coalesced %d)", misses, coalesced)
	}
	if coalesced == 0 {
		t.Fatalf("no request was coalesced")
	}
}

// TestLateRequestHitsAfterFlight is the regression test for the
// compile-once race: a request that arrives just after the leader's
// flight is forgotten must find the result in the cache, not run the
// key a second time.  The flight group's forgotten hook sends that
// request at exactly that moment.
func TestLateRequestHitsAfterFlight(t *testing.T) {
	var executions atomic.Int64
	srv, ts := newTestServer(t, Config{CompileHook: func(Key) { executions.Add(1) }})
	req := &Request{Source: helloSrc, Level: intp(2)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	late := make(chan string, 1)
	var probed atomic.Bool
	srv.flights.forgotten = func(Key) {
		if !probed.CompareAndSwap(false, true) {
			return // the probe's own flight, had it missed
		}
		resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			late <- "error: " + err.Error()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		late <- resp.Header.Get("X-Cache")
	}
	if r := post(t, ts, "/compile", req); r.status != http.StatusOK || r.cache != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", r.status, r.cache)
	}
	if got := <-late; got != "hit" {
		t.Errorf("request arriving as the flight was forgotten: X-Cache %q, want hit", got)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestQueueOverflow saturates a 1-worker, depth-1 pool and checks the
// next request is shed with 429 + Retry-After rather than queued.
func TestQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 2 * time.Second,
		CompileHook: func(Key) {
			<-release
		},
	})
	defer close(release)

	// Distinct sources so nothing coalesces.
	src := func(n int) *Request {
		return &Request{Source: fmt.Sprintf(`int main(void) { puti(%d); return 0; }`, n)}
	}
	done := make(chan reply, 2)
	go func() { done <- post(t, ts, "/compile", src(0)) }() // occupies the worker
	waitFor(t, "worker busy", func() bool { return srv.pool.InFlight() == 1 })
	go func() { done <- post(t, ts, "/compile", src(1)) }() // occupies the queue slot
	waitFor(t, "queue full", func() bool { return srv.pool.QueueDepth() == 1 })

	shed := post(t, ts, "/compile", src(2))
	if shed.status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", shed.status, shed.body)
	}
	if shed.retry != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", shed.retry)
	}

	release <- struct{}{}
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if r := <-done; r.status != http.StatusOK {
			t.Fatalf("blocked request %d: status %d, body %s", i, r.status, r.body)
		}
	}
	if srv.metrics.shed.value() != 1 {
		t.Fatalf("shed counter = %d, want 1", srv.metrics.shed.value())
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentMixed fires 64 concurrent requests mixing endpoints,
// levels, and hit/miss traffic; run under -race this is the
// subsystem's core concurrency check.
func TestConcurrentMixed(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 256})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			endpoint := "/compile"
			if i%2 == 0 {
				endpoint = "/run"
			}
			src := helloSrc // half the traffic shares one program
			if i%4 < 2 {
				src = fmt.Sprintf(`int main(void) { int i, s; s = %d; for (i = 0; i < 20; i++) s = s + i; puti(s); return 0; }`, i)
			}
			res := post(t, ts, endpoint, &Request{Source: src, Level: intp(i % 4)})
			if res.status != http.StatusOK {
				errs <- fmt.Errorf("request %d (%s): status %d, body %s", i, endpoint, res.status, res.body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheHitSpeedup is the acceptance check that a cache hit is at
// least 10x faster than a cold compile of the same request.
func TestCacheHitSpeedup(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A source big enough that a cold O3 compile-and-run costs
	// milliseconds; variants keep each cold sample a genuine miss.
	bigSource := func(tag int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "double a[256], acc[256];\n")
		for fn := 0; fn < 12; fn++ {
			fmt.Fprintf(&b, `double work%d(void) {
    int i; double s;
    s = %d.0;
    for (i = 0; i < 256; i++) a[i] = i * %d.0;
    for (i = 0; i < 256; i++) s = s + a[i] * a[i];
    for (i = 1; i < 256; i++) acc[i] = acc[i-1] + a[i];
    return s + acc[255];
}
`, fn, tag, fn+1)
		}
		b.WriteString("int main(void) { double s; s = 0.0;\n")
		for fn := 0; fn < 12; fn++ {
			fmt.Fprintf(&b, "    s = s + work%d();\n", fn)
		}
		b.WriteString("    putd(s);\n    return 0;\n}\n")
		return b.String()
	}

	var cold, hit time.Duration
	for sample := 0; sample < 3; sample++ {
		req := &Request{Source: bigSource(sample), Level: intp(3)}
		start := time.Now()
		res := post(t, ts, "/run", req)
		d := time.Since(start)
		if res.status != http.StatusOK || res.cache != "miss" {
			t.Fatalf("cold %d: status %d X-Cache %q, body %.200s", sample, res.status, res.cache, res.body)
		}
		if sample == 0 || d < cold {
			cold = d
		}
		for n := 0; n < 5; n++ {
			start := time.Now()
			res := post(t, ts, "/run", req)
			d := time.Since(start)
			if res.status != http.StatusOK || res.cache != "hit" {
				t.Fatalf("hit: status %d X-Cache %q", res.status, res.cache)
			}
			if hit == 0 || d < hit {
				hit = d
			}
		}
	}
	if cold < 10*hit {
		t.Fatalf("cache hit not >=10x faster: best cold %v, best hit %v", cold, hit)
	}
	t.Logf("best cold %v, best hit %v (%.0fx)", cold, hit, float64(cold)/float64(hit))
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Version: "test-v1"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Version != "test-v1" {
		t.Fatalf("healthz: code %d, body %+v", resp.StatusCode, h)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: code %d, want 503", resp.StatusCode)
	}
}

func TestClosedServerSheds(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Close()
	res := post(t, ts, "/compile", &Request{Source: helloSrc})
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 after Close", res.status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/compile", &Request{Source: helloSrc, Level: intp(1)})
	post(t, ts, "/compile", &Request{Source: helloSrc, Level: intp(1)}) // hit
	post(t, ts, "/run", &Request{Source: streamSrc, Level: intp(3)})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	for _, want := range []string{
		`wmserved_requests_total{endpoint="compile",code="200"} 2`,
		`wmserved_requests_total{endpoint="run",code="200"} 1`,
		`wmserved_compiles_total{level="O1"} 1`,
		`wmserved_compiles_total{level="O3"} 1`,
		"wmserved_cache_hits_total 1",
		"wmserved_cache_misses_total 2",
		"wmserved_request_duration_seconds_bucket",
		"wmserved_workers",
		`wmserved_sim_unit_cycles_total{unit=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSoak reuses the wmload generator against an in-process server.
// The default duration keeps `go test` quick; CI's race-soak job sets
// WMSERVE_SOAK=30s.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak in -short mode")
	}
	dur := 2 * time.Second
	if env := os.Getenv("WMSERVE_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad WMSERVE_SOAK %q: %v", env, err)
		}
		dur = d
	}
	_, ts := newTestServer(t, Config{QueueDepth: 512})
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Duration:    dur,
		Concurrency: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.String())
	if rep.Errors > 0 {
		t.Fatalf("%d transport errors", rep.Errors)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	ok := rep.ByStatus[http.StatusOK]
	if float64(ok) < 0.9*float64(rep.Requests) {
		t.Fatalf("only %d/%d requests succeeded", ok, rep.Requests)
	}
	if rep.ByCache["hit"] == 0 {
		t.Fatal("soak produced no cache hits")
	}
}

func TestCacheKeyResolvesEquivalentRequests(t *testing.T) {
	// `"level": 2` and the equivalent explicit options must share a
	// content address; different levels must not.
	o2 := &Request{Source: helloSrc, Level: intp(2)}
	lv := wmstreamLevelOptions(2)
	explicit := &Request{Source: helloSrc, Options: &lv}
	if o2.cacheKey(kindCompile) != explicit.cacheKey(kindCompile) {
		t.Fatal("equivalent requests hash to different keys")
	}
	o3 := &Request{Source: helloSrc, Level: intp(3)}
	if o2.cacheKey(kindCompile) == o3.cacheKey(kindCompile) {
		t.Fatal("O2 and O3 share a key")
	}
	// The same request targets distinct entries per endpoint, and the
	// machine configuration only matters for /run.
	if o2.cacheKey(kindCompile) == o2.cacheKey(kindRun) {
		t.Fatal("compile and run share a key")
	}
	mach := &Request{Source: helloSrc, Level: intp(2), Machine: &MachineSpec{MemLatency: 99}}
	if o2.cacheKey(kindCompile) != mach.cacheKey(kindCompile) {
		t.Fatal("machine config leaked into the compile key")
	}
	if o2.cacheKey(kindRun) == mach.cacheKey(kindRun) {
		t.Fatal("machine config ignored in the run key")
	}
}
