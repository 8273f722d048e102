package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clients is the closed-loop concurrency of every HTTP workload: two
// client goroutines on two keep-alive connections, one per core of the
// two-core host the sizes were chosen on.
const clients = 2

// server is one wmserved child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	debug  string // debug listener base URL, when started with one
	client *http.Client
	done   chan struct{} // closed once cmd.Wait has returned
}

// freeAddr picks an unused loopback port for the child to listen on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches wmserved with its default flags plus extra,
// and waits until /healthz answers 200.  It returns the time from
// launch until then.
func startServer(e *env, debug bool, extra ...string) (*server, time.Duration, error) {
	if e.wmserved == "" {
		return nil, 0, fmt.Errorf("no wmserved binary (-wmserved)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", addr}, extra...)
	s := &server{base: "http://" + addr, done: make(chan struct{})}
	if debug {
		daddr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-debug-addr", daddr)
		s.debug = "http://" + daddr
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	// The per-request log lines go to /dev/null: the server pays for
	// formatting them, as in production, but the disk does not add
	// noise.
	s.cmd = exec.Command(e.wmserved, args...)
	// Should the benchmark die, the kernel takes the server down too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.cmd.Wait(); close(s.done) }()
	deadline := start.Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("wmserved exited during start-up: %v", s.cmd.ProcessState)
		default:
		}
		if err := s.health(); err == nil {
			return s, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("wmserved not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) health() error {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop drains the server with SIGTERM (SIGKILL after 20s), waits for
// it to exit and returns its peak RSS in MiB.
func (s *server) stop() float64 {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	return maxRSSMiB(s.cmd.ProcessState)
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string
	timing map[string]float64 // Server-Timing durations, ms
	start  time.Time
	lat    time.Duration
}

func (s *server) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := s.client.Do(req)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(r.start)
	if err != nil {
		return r, err
	}
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	r.timing = parseServerTiming(resp.Header.Get("Server-Timing"))
	return r, nil
}

// parseServerTiming reads the "name;dur=ms" entries of a Server-Timing
// header.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(f), "dur="); ok {
				if d, err := strconv.ParseFloat(v, 64); err == nil {
					out[fields[0]] = d
				}
			}
		}
	}
	return out
}

// counter reads one unlabeled counter or gauge from /metrics.
func (s *server) counter(name string) (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// transCounts are the server's cumulative translation-cache counters.
type transCounts struct{ miss, hit float64 }

func (s *server) translations() (transCounts, error) {
	miss, err := s.counter("wmserved_translation_cache_misses_total")
	if err != nil {
		return transCounts{}, err
	}
	hit, err := s.counter("wmserved_translation_cache_hits_total")
	return transCounts{miss, hit}, err
}

// perSim writes the translation misses and hits per simulation run
// between two readings.
func perSim(m map[string]float64, before, after transCounts, sims int) {
	n := float64(max(sims, 1))
	m["sim.translate_miss"] = (after.miss - before.miss) / n
	m["sim.translate_hit"] = (after.hit - before.hit) / n
}

// runtimeStats reads the server's cumulative allocation count and GC
// CPU fraction from the debug listener's heap profile header.
func (s *server) runtimeStats() (mallocs, gcFrac float64, err error) {
	if s.debug == "" {
		return 0, 0, fmt.Errorf("no debug listener")
	}
	resp, err := s.client.Get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	found := 0
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			mallocs, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(sc.Text(), "# GCCPUFraction = "); ok {
			gcFrac, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile lacks MemStats")
	}
	return mallocs, gcFrac, nil
}

// setupN is how many times a run sets its server up; setup_s is the
// median, and the last instance serves the measurement.
const setupN = 3

// setUp starts a server setupN times, stopping each earlier instance,
// and returns the last one with the median set-up time.  prepare, if
// not nil, runs on each instance before its set-up clock stops.
func setUp(e *env, prepare func(*server) error) (*server, float64, error) {
	var (
		last  *server
		times []float64
	)
	for n := range setupN {
		if last != nil {
			last.stop()
			last = nil
		}
		s, d, err := startServer(e, e.tr != nil && n == setupN-1)
		if err != nil {
			return nil, 0, err
		}
		if prepare != nil {
			start := time.Now()
			err := prepare(s)
			d += time.Since(start)
			if err != nil {
				s.stop()
				return nil, 0, err
			}
		}
		last = s
		times = append(times, d.Seconds())
	}
	return last, median(times), nil
}

// scratchDir creates a fresh directory under the run's scratch area.
func scratchDir(e *env, name string) (string, error) {
	dir := fmt.Sprintf("%s/tmp/%s-%d-%d", e.work, name, os.Getpid(), time.Now().UnixNano())
	return dir, os.MkdirAll(dir, 0o755)
}
