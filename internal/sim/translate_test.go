package sim

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"wmstream/internal/rtl"
)

// imageSalt makes every distinctImage call unique, also across -count
// repetitions.
var imageSalt atomic.Int64

// distinctImage links a tiny program with a fingerprint no other call
// produces, so each test controls its images' sighting history.
func distinctImage(t *testing.T) *Image {
	t.Helper()
	p, err := rtl.Parse(fmt.Sprintf(".entry main\n.func main\nr2 := %d\nputi r2\nhalt\n.end\n", 7_000_000+imageSalt.Add(1)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return img
}

func runPooled(t *testing.T, img *Image, cfg Config) {
	t.Helper()
	var out bytes.Buffer
	cfg.Output = &out
	m := Acquire(img, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	Release(m)
}

// resident reports whether the image is in the translation cache under
// cfg, and how many machine pools hang off its entry.
func resident(img *Image, cfg Config) (bool, int) {
	c := translations
	c.mu.Lock()
	e, ok := c.entries[transKeyFor(img, cfg)]
	c.mu.Unlock()
	pools := 0
	if ok {
		e.pools.Range(func(any, any) bool { pools++; return true })
	}
	return ok, pools
}

// TestTranslationAdmission: the first sighting of an image is
// translated for its caller but not retained (no entry, no pool); the
// second is admitted; the third hits.  Every non-resident lookup counts
// one miss, as before admission control.
func TestTranslationAdmission(t *testing.T) {
	img := distinctImage(t)
	cfg := DefaultConfig()
	for k, want := range []struct {
		resident     bool
		hits, misses int64
	}{{false, 0, 1}, {true, 0, 1}, {true, 1, 0}} {
		before := TranslationCacheStats()
		runUninterrupted(t, img, cfg)
		after := TranslationCacheStats()
		if in, _ := resident(img, cfg); in != want.resident {
			t.Errorf("sighting %d: resident = %v, want %v", k+1, in, want.resident)
		}
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != want.hits || m != want.misses {
			t.Errorf("sighting %d: hits +%d misses +%d, want +%d +%d", k+1, h, m, want.hits, want.misses)
		}
	}
	// Pooling follows residency: a released machine of a resident
	// image lands in the entry's pool.
	runPooled(t, img, cfg)
	if _, pools := resident(img, cfg); pools != 1 {
		t.Errorf("resident image has %d machine pools, want 1", pools)
	}
	one := distinctImage(t)
	runPooled(t, one, cfg)
	if in, pools := resident(one, cfg); in || pools != 0 {
		t.Errorf("one-off image: resident %v with %d pools, want neither", in, pools)
	}
}

// TestFastEngineAdmission: engines that never translate still pool a
// recurring image, through the same admission rule.
func TestFastEngineAdmission(t *testing.T) {
	img := distinctImage(t)
	cfg := DefaultConfig()
	cfg.Engine = EngineFast
	before := TranslationCacheStats()
	runPooled(t, img, cfg)
	if in, _ := resident(img, cfg); in {
		t.Error("first sighting retained")
	}
	runPooled(t, img, cfg)
	if in, pools := resident(img, cfg); !in || pools != 1 {
		t.Errorf("second sighting: resident %v with %d pools, want admitted with 1", in, pools)
	}
	if after := TranslationCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("fast-engine runs moved the translation counters: %+v → %+v", before, after)
	}
}

// TestPoolsBoundedByCache: machine pools live on translation-cache
// entries, so however many distinct images run, the pools (and the
// seen-set) never exceed the cache cap.
func TestPoolsBoundedByCache(t *testing.T) {
	const cap = 4
	prev := TranslationCacheStats().Cap
	SetTranslationCacheCap(cap)
	defer SetTranslationCacheCap(prev)
	cfg := DefaultConfig()
	mine := map[[32]byte]bool{}
	for n := 0; n < 3*cap; n++ {
		img := distinctImage(t)
		mine[img.Fingerprint()] = true
		runPooled(t, img, cfg)
		runPooled(t, img, cfg)
		c := translations
		c.mu.Lock()
		entries, seen, pools := len(c.entries), len(c.seen), 0
		for _, e := range c.entries {
			e.pools.Range(func(k, _ any) bool {
				if mine[k.(poolKey).fp] {
					pools++
				}
				return true
			})
		}
		c.mu.Unlock()
		if entries > cap || pools > cap || seen > cap {
			t.Fatalf("after %d images: %d entries, %d pools, %d seen; cap %d", n+1, entries, pools, seen, cap)
		}
		if n >= cap && pools != cap {
			t.Errorf("after %d recurring images: %d pools, want the cap (%d)", n+1, pools, cap)
		}
	}
}

// TestPooledRunKeepsImageResident: a run served by a recycled machine
// never looks its translation up, so the pool lookup itself must keep
// the image at the front of the LRU; otherwise a hot pooled image
// would be evicted, pools and all, by images admitted after it.
func TestPooledRunKeepsImageResident(t *testing.T) {
	const cap = 2
	prev := TranslationCacheStats().Cap
	SetTranslationCacheCap(cap)
	defer SetTranslationCacheCap(prev)
	cfg := DefaultConfig()
	hot := distinctImage(t)
	runPooled(t, hot, cfg)
	runPooled(t, hot, cfg) // admitted, machine pooled
	for n := 0; n < 3*cap; n++ {
		other := distinctImage(t)
		runUninterrupted(t, other, cfg)
		runUninterrupted(t, other, cfg) // admitted
		runPooled(t, hot, cfg)
		if in, _ := resident(hot, cfg); !in {
			t.Fatalf("hot pooled image evicted after %d other admissions", n+1)
		}
	}
}
