package serve

import "sync"

// flightResult is the outcome one in-flight execution hands to every
// request coalesced onto it: an HTTP status and a fully rendered
// response body.
type flightResult struct {
	status int
	body   []byte
}

type flight struct {
	done   chan struct{}
	res    flightResult
	leader string // leader's trace ID, for followers' attach spans
}

// flightGroup coalesces concurrent requests for the same content
// address: the first caller for a key (the leader) runs fn, everyone
// arriving before it finishes blocks and shares the leader's result.
// The flight is forgotten once fn returns, before its result is
// published, so requests arriving later start fresh.  fn must
// therefore make its result durable (the server fills the response
// cache inside fn) before returning: a request arriving after the
// flight is forgotten then hits the cache instead of running the key
// a second time.
type flightGroup struct {
	mu      sync.Mutex
	flights map[Key]*flight
	// forgotten, when non-nil, is called right after a flight is
	// forgotten and before its waiters wake — the window a late
	// request can land in.  Tests use it to probe that window.
	forgotten func(Key)
}

// Do returns fn's result for the key, executing fn at most once among
// concurrent callers.  shared is false for the leader that actually
// ran fn and true for coalesced waiters.  self is the caller's trace
// ID; followers get the leader's back, so their traces can point at
// the trace that actually holds the execution spans.
func (g *flightGroup) Do(k Key, self string, fn func() flightResult) (res flightResult, shared bool, leader string) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[Key]*flight)
	}
	if f, ok := g.flights[k]; ok {
		g.mu.Unlock()
		<-f.done
		return f.res, true, f.leader
	}
	f := &flight{done: make(chan struct{}), leader: self}
	g.flights[k] = f
	g.mu.Unlock()

	f.res = fn()

	g.mu.Lock()
	delete(g.flights, k)
	g.mu.Unlock()
	if g.forgotten != nil {
		g.forgotten(k)
	}
	close(f.done)
	return f.res, false, self
}
