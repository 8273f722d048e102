package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation: a request or a (program, level)
// pair.
type sample struct {
	lat  time.Duration
	done time.Time
	ok   bool
}

// closedLoop runs op from `clients` goroutines, each issuing its next
// operation only when the previous one has completed, until d has
// elapsed.  op receives a sequence number shared across goroutines, so
// the request sequence is a function of the seed alone.  Samples come
// back in completion order.
func closedLoop(d time.Duration, op func(i int64) sample) []sample {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  []sample
	)
	stop := time.Now().Add(d)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Now().Before(stop) {
				local = append(local, op(next.Add(1)-1))
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	return all
}

// forEach runs op over n items on `clients` goroutines and waits.
func forEach(n int, op func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// count books the samples as attempted operations, the failed ones as
// failed.
func (o *outcome) count(samples []sample) {
	for _, s := range samples {
		o.attempted++
		if !s.ok {
			o.failed++
		}
	}
}

// splitmix is a stateless seeded hash: the i-th draw of a sequence.
func splitmix(seed, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// loopMetrics fills the rate and latency metrics shared by the closed
// loop workloads.  round is the workload's unit of work in operations;
// wall_s is the median time the loop took to complete one round.
func loopMetrics(m map[string]float64, samples []sample, round int, what string) {
	var lats []float64
	okN := 0
	for _, s := range samples {
		if s.ok {
			okN++
			lats = append(lats, float64(s.lat)/1e6)
		}
	}
	m["rps"] = 0
	if n := len(samples); n > 0 {
		first := samples[0].done.Add(-samples[0].lat)
		m["rps"] = float64(okN) / samples[n-1].done.Sub(first).Seconds()
	}
	var rounds []float64
	for k := round; k < len(samples); k += round {
		rounds = append(rounds, samples[k].done.Sub(samples[k-round].done).Seconds())
	}
	m["wall_s"] = median(rounds)
	if len(rounds) == 0 && m["rps"] > 0 {
		// Too short a run for one whole round: scale the rate instead.
		m["wall_s"] = float64(round) / m["rps"]
	}
	latencyMetrics(m, lats, what)
}

// latencyMetrics sets p50, p90 and p99 of lats (in completion order)
// and prints how the tails were taken.  p50 and p90 are over the whole
// run; p99 is per window when the run is long enough (see tail), since
// a few stalls of the shared host decide a whole-run p99.  A tail over
// the whole run is resolved only with at least ten samples beyond it.
func latencyMetrics(m map[string]float64, lats []float64, what string) {
	m["p50_ms"] = percentile(lats, 0.50)
	m["p90_ms"] = percentile(lats, 0.90)
	p99, windows := tail(lats, 0.99)
	m["p99_ms"] = p99
	note := func(q float64) string {
		if resolved(len(lats), q) {
			return fmt.Sprintf("has %d beyond", beyond(len(lats), q))
		}
		return fmt.Sprintf("has %d beyond (unresolved: fewer than 10 beyond)", beyond(len(lats), q))
	}
	p99Note := note(0.99)
	if windows > 0 {
		p99Note = fmt.Sprintf("is the median of %d windows of %d", windows, resolvingSize(0.99))
	}
	fmt.Printf("latency over %d %s: p90 %s, p99 %s\n", len(lats), what, note(0.90), p99Note)
}
