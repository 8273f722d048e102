package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

// A tail percentile is resolved only with at least ten samples beyond
// it: p99 needs 1000 samples, p90 needs 100.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{100, 0.99, 1, false},
		{100, 0.90, 10, true},
		{99, 0.90, 9, false},
		{0, 0.99, 0, false},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := resolved(c.n, c.q); got != c.ok {
			t.Errorf("resolved(%d, %g) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
}

func TestResolvingSize(t *testing.T) {
	if got := resolvingSize(0.99); got != 1000 {
		t.Errorf("resolvingSize(0.99) = %d, want 1000", got)
	}
	if got := resolvingSize(0.90); got != 100 {
		t.Errorf("resolvingSize(0.90) = %d, want 100", got)
	}
}

// A tail is the median of per-window tails once the run holds
// minWindows resolving windows, so a burst confined to one window does
// not move it; shorter runs use the whole run.
func TestTailWindows(t *testing.T) {
	window := func(top float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = float64(i + 1) // p90 of the window is 90
		}
		xs[99] = top
		return xs
	}
	var run []float64
	for k := range minWindows {
		w := window(100)
		if k == 2 {
			for i := range w {
				w[i] += 1000 // a burst of stalls
			}
		}
		run = append(run, w...)
	}
	if got, n := tail(run, 0.90); got != 90 || n != minWindows {
		t.Errorf("tail over %d windows = %g (%d windows), want 90 (%d)", minWindows, got, n, minWindows)
	}
	short := run[:(minWindows-1)*100]
	if got, n := tail(short, 0.90); got != percentile(short, 0.90) || n != 0 {
		t.Errorf("tail of a short run = %g (%d windows), want the whole-run %g", got, n, percentile(short, 0.90))
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{3, 0}, 0},
		{nil, 0},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	// Children [1,3] and [2,5] overlap; [8,12] sticks out of the span.
	got := selfTime(interval{0, 10}, []interval{{1, 3}, {2, 5}, {8, 12}})
	if got != 4 {
		t.Errorf("selfTime = %g, want 4 (10 − [1,5] − [8,10])", got)
	}
	if got := selfTime(interval{0, 10}, nil); got != 10 {
		t.Errorf("selfTime without children = %g, want 10", got)
	}
}

func TestUnattributedFrac(t *testing.T) {
	if got := unattributedFrac(6, 10); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unattributedFrac(6, 10) = %g, want 0.4", got)
	}
	if got := unattributedFrac(12, 10); got != 0 {
		t.Errorf("over-attribution clamps to 0, got %g", got)
	}
	if got := unattributedFrac(1, 0); got != 0 {
		t.Errorf("no wall time gives 0, got %g", got)
	}
}

// attribute books each layer's self time and leaves the server's
// unspanned remainder (serve.other) unattributed.
func TestAttribute(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "serve.http", Start: 0, End: ms(1)},
		{ID: 3, Parent: 1, Name: "serve.http", Start: ms(9), End: ms(10)},
		{ID: 4, Parent: 1, Name: "serve.other", Start: ms(1), End: ms(9)},
		{ID: 5, Parent: 4, Name: "sim.server", Start: ms(1), End: ms(5)},
		// A replay root is not end-to-end time.
		{ID: 6, Name: "replay", Start: 0, End: ms(50)},
		{ID: 7, Parent: 6, Name: "opt", Start: 0, End: ms(50)},
	}
	a := attribute(spans, map[string]bool{"request": true})
	if a.Wall != ms(10) {
		t.Errorf("wall = %v, want 10ms", a.Wall)
	}
	if a.Layers["serve"] != ms(2) || a.Layers["sim"] != ms(4) || a.Layers["opt"] != 0 {
		t.Errorf("layers = %v, want serve 2ms, sim 4ms, no opt", a.Layers)
	}
	if math.Abs(a.Unattrib-0.4) > 1e-12 {
		t.Errorf("unattributed = %g, want 0.4", a.Unattrib)
	}
	if a.Roots != 1 {
		t.Errorf("%d end-to-end roots, want 1", a.Roots)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming(`cache;desc="miss", queue;dur=0.012, compile;dur=12.5, total;dur=13.010`)
	want := map[string]float64{"queue": 0.012, "compile": 12.5, "total": 13.010}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
}

// The Livermore 5 reference is computed in plain Go, not by the
// compiler under test; these are the sums the simulator prints.
func TestLivermoreReference(t *testing.T) {
	for n, want := range map[int]string{5000: "7442.143529424178", 100000: "148849.29434663148"} {
		if got := livermore5Sum(n); got != want {
			t.Errorf("livermore5Sum(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestDealerDealsWholeSeededDecks(t *testing.T) {
	progs, err := tableII()
	if err != nil {
		t.Fatal(err)
	}
	deck := coldDeck(progs)
	if len(deck) != 96 {
		t.Fatalf("deck has %d cards, want 96", len(deck))
	}
	count := func(d *dealer, from int64) map[card]int {
		m := map[card]int{}
		for i := from; i < from+int64(len(deck)); i++ {
			c := d.card(i)
			m[card{c.kind, program{Name: c.prog.Name}, c.level}]++
		}
		return m
	}
	a := &dealer{seed: 1, deck: deck, perms: map[int64][]int{}}
	b := &dealer{seed: 2, deck: deck, perms: map[int64][]int{}}
	ca, cb := count(a, 0), count(b, int64(len(deck)))
	runs := 0
	for c, n := range ca {
		if cb[c] != n {
			t.Errorf("%v dealt %d times by one seed, %d by another", c, n, cb[c])
		}
		if c.kind == kindRun {
			runs += n
		}
	}
	if runs != 24 {
		t.Errorf("%d /run cards per deck, want 24", runs)
	}
	same := true
	for i := int64(0); i < int64(len(deck)); i++ {
		if a.card(i) != (&dealer{seed: 1, deck: deck, perms: map[int64][]int{}}).card(i) {
			t.Fatal("the same seed dealt a different sequence")
		}
		same = same && a.card(i).prog.Name == b.card(i).prog.Name && a.card(i).kind == b.card(i).kind
	}
	if same {
		t.Error("two seeds dealt the same order")
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := coldSalt(7, i)
		if seen[s] || s < 0 || s >= 1<<31 {
			t.Fatalf("salt %d repeated or not a Mini-C int", s)
		}
		seen[s] = true
	}
}
