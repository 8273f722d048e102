package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// tracer records the benchmark's own spans in memory: one per call
// into a layer, plus a root per request or suite pass.  A nil
// *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed interval.  Parent 0 marks a root; Req groups the
// spans of one request (or suite pass).
type span struct {
	ID, Parent int
	Req        int64
	Name       string
	Start, End time.Duration // since the tracer's t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a completed span and returns its id (0 when off).
func (t *tracer) add(name string, parent int, req int64, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: s, End: s + d})
	return len(t.spans)
}

// begin opens a span that end closes; it returns the span id (0 when
// off).
func (t *tracer) begin(name string, parent int, req int64) int {
	return t.add(name, parent, req, time.Now(), 0)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0)
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, parent int, req int64, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.add(name, parent, req, start, time.Since(start))
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{float64(s.Start), float64(s.End)})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(selfTime(interval{float64(s.Start), float64(s.End)}, children[s.ID]))
	}
	return out
}

// layerOf maps a span name to the repository layer it times, or ""
// for roots and residuals that no layer owns.
func layerOf(name string) string {
	switch {
	case name == "minic", name == "acode", name == "opt":
		return name
	case name == "rtl.listing":
		return "rtl"
	case name == "srv.compile":
		return "compile" // minic + acode + opt inside the server
	case strings.HasPrefix(name, "sim."):
		return "sim"
	case strings.HasPrefix(name, "durable."):
		return "durable"
	case name == "serve.other":
		return "" // the server's residual: not yet spanned inside the program
	case strings.HasPrefix(name, "serve."):
		return "serve"
	}
	return ""
}

// attribution summarises the end-to-end spans (those whose root is
// one of roots): the wall time of the roots, each layer's self time,
// and the unattributed remainder.
type attribution struct {
	Roots    int
	Wall     time.Duration
	Layers   map[string]time.Duration
	Unattrib float64
}

func attribute(spans []span, roots map[string]bool) attribution {
	rootOf := map[int]int{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var find func(id int) int
	find = func(id int) int {
		if r, ok := rootOf[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if s.Parent != 0 {
			r = find(s.Parent)
		}
		rootOf[id] = r
		return r
	}
	var keep []span
	a := attribution{Layers: map[string]time.Duration{}}
	for _, s := range spans {
		if roots[byID[find(s.ID)].Name] {
			keep = append(keep, s)
			if s.Parent == 0 {
				a.Wall += s.End - s.Start
				a.Roots++
			}
		}
	}
	var attributed time.Duration
	for name, d := range selfTimes(keep) {
		if l := layerOf(name); l != "" {
			a.Layers[l] += d
			attributed += d
		}
	}
	a.Unattrib = unattributedFrac(float64(attributed), float64(a.Wall))
	return a
}

// writeChrome writes spans as Chrome trace events ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open.  Each request gets its own track.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
