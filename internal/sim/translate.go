package sim

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// The translated engine.  An assembled image is lowered once — per
// (image fingerprint, latency parameters) — into flat tables of Go
// closures (see block.go), shared process-wide across every Machine
// running that image.  The run loop is the fast engine's (the same
// idle-skip and SCU-batch windows apply; they are properties of the
// machine state, not of how a cycle is evaluated), but each cycle walks
// the closure tables instead of decoding and interpreting: no kind
// switches, no expression interpretation, no hazard-kind dispatch, no
// fmt, no map lookups.
//
// The engine is bit-identical to the reference interpreter — same
// Stats, same output bytes, same memory image, same telemetry cycle
// attribution, same faults at the same cycles — which the differential
// matrix in internal/bench enforces.  Runs that must observe every
// cycle (a trace recorder attached) fall back to the reference engine
// in RunSlice; everything else (traps, deadlock detection, slice
// boundaries, checkpoint save/restore) behaves identically here.

// translation is the compiled form of one image under one set of baked
// latency parameters.
type translation struct {
	dec    []decoded // decode cache, shared with the machines (read-only)
	issue  []issueFn // unit-side step per code index (dispatched kinds only)
	ifu    []ifuFn   // IFU-side step per code index
	blocks int       // superblocks formed (introspection)
}

// translate lowers every superblock of the image.
func translate(img *Image, cfg Config) *translation {
	dec := decodeImage(img, cfg)
	tr := &translation{
		dec:   dec,
		issue: make([]issueFn, len(img.Code)),
		ifu:   make([]ifuFn, len(img.Code)),
	}
	for _, b := range superblocks(img) {
		tr.blocks++
		for k := b.start; k < b.end; k++ {
			i := img.Code[k]
			d := &dec[k]
			switch i.Kind {
			case rtl.KJump, rtl.KCondJump, rtl.KJumpNotDone, rtl.KCall,
				rtl.KRet, rtl.KHalt, rtl.KPut,
				rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop:
				// IFU-resident: never enters a unit queue.
			default:
				tr.issue[k] = makeIssue(k, i, d)
			}
			// After makeIssue so the dispatch closure can capture the
			// issue function for its own index.
			tr.ifu[k] = makeIFU(k, i, img.Target[k], d, len(img.Code), tr.issue[k])
		}
	}
	return tr
}

// --- the process-wide translation cache ----------------------------------

// transKey identifies a translation: the image fingerprint plus the
// only configuration parameters translation bakes in (the latencies
// the decode cache folds into per-instruction forwarding times).
// Structural parameters (FIFO depths, queue depths, memory geometry)
// are read from the machine at run time and do not key the cache.
type transKey struct {
	fp             [sha256.Size]byte
	div, math, cvt int
}

type transEntry struct {
	once sync.Once
	tr   *translation
	elem *list.Element // position in the LRU list (value: transKey)
	// pools holds the image's machine pools (poolKey -> *sync.Pool),
	// so recycled machines are dropped when the image is evicted.
	pools sync.Map
}

// The cache admits an image on its second sighting.  A first sighting
// is translated for its caller alone and only remembered in a bounded
// seen-set: a one-off image (a salted or freshly edited program under
// serving) then never pins a translation or a machine pool, while any
// image run twice becomes resident.
type transCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[transKey]*transEntry
	lru       *list.List
	seen      map[transKey]*list.Element // first sightings not yet admitted
	seenOrder *list.List                 // oldest sighting at the back
	hits      int64
	misses    int64
	evictions int64
}

var translations = &transCache{
	cap:       64,
	entries:   make(map[transKey]*transEntry),
	lru:       list.New(),
	seen:      make(map[transKey]*list.Element),
	seenOrder: list.New(),
}

func transKeyFor(img *Image, cfg Config) transKey {
	return transKey{
		fp:   img.Fingerprint(),
		div:  cfg.DivLatency,
		math: cfg.MathLatency,
		cvt:  cfg.CvtLatency,
	}
}

// translationFor returns the translation of the image under the
// configuration: the cached one for a resident image, a fresh one
// otherwise.  Every lookup that finds no resident entry counts as a
// miss.  Translation runs outside the cache lock (per-entry
// sync.Once), so a slow translation of one image never blocks lookups
// of others; an entry evicted while still referenced by machines keeps
// working — eviction only forgets it.
func translationFor(img *Image, cfg Config) *translation {
	key := transKeyFor(img, cfg)
	c := translations
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
	} else {
		c.misses++
		e = c.admitLocked(key)
	}
	c.mu.Unlock()
	if e == nil {
		return translate(img, cfg)
	}
	e.once.Do(func() { e.tr = translate(img, cfg) })
	return e.tr
}

// admitLocked records a sighting of a non-resident key and returns its
// new entry when this is the second sighting (or the cache is
// unbounded), nil on a first sighting.
func (c *transCache) admitLocked(key transKey) *transEntry {
	if c.cap > 0 {
		el, again := c.seen[key]
		if !again {
			c.seen[key] = c.seenOrder.PushFront(key)
			c.evictLocked()
			return nil
		}
		delete(c.seen, key)
		c.seenOrder.Remove(el)
	}
	e := &transEntry{}
	e.elem = c.lru.PushFront(key)
	c.entries[key] = e
	c.evictLocked()
	return e
}

// poolFor returns the machine pool for the key when its image is
// resident, nil otherwise.  A resident image moves to the front of the
// LRU, since a recycled machine never looks its translation up again.
// With sight set, a lookup of a non-resident image counts as a
// sighting for admission (without touching the hit/miss counters):
// the engines that never translate use it so their machines still pool
// once the image recurs.
func (c *transCache) poolFor(k poolKey, sight bool) *sync.Pool {
	tk := transKey{fp: k.fp, div: k.divLatency, math: k.mathLatency, cvt: k.cvtLatency}
	c.mu.Lock()
	e := c.entries[tk]
	switch {
	case e != nil:
		c.lru.MoveToFront(e.elem)
	case sight:
		e = c.admitLocked(tk)
	}
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	p, ok := e.pools.Load(k)
	if !ok {
		p, _ = e.pools.LoadOrStore(k, &sync.Pool{})
	}
	return p.(*sync.Pool)
}

// evictLocked trims the resident entries to the cap, and the seen-set
// to the same bound.
func (c *transCache) evictLocked() {
	for c.cap > 0 && c.lru.Len() > c.cap {
		back := c.lru.Back()
		delete(c.entries, back.Value.(transKey))
		c.lru.Remove(back)
		c.evictions++
	}
	for c.seenOrder.Len() > max(c.cap, 0) {
		delete(c.seen, c.seenOrder.Remove(c.seenOrder.Back()).(transKey))
	}
}

// TransCacheStats is a point-in-time view of the process-wide
// translation cache (exported for the serving layer's metrics).
type TransCacheStats struct {
	Entries   int
	Cap       int
	Hits      int64
	Misses    int64
	Evictions int64
}

// TranslationCacheStats reports the translation cache counters.
func TranslationCacheStats() TransCacheStats {
	c := translations
	c.mu.Lock()
	defer c.mu.Unlock()
	return TransCacheStats{
		Entries:   len(c.entries),
		Cap:       c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// SetTranslationCacheCap bounds the number of retained translations
// (n <= 0 removes the bound) and evicts down to the new cap.
func SetTranslationCacheCap(n int) {
	c := translations
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.evictLocked()
}

// --- the run loop --------------------------------------------------------

// runTranslated advances the translated engine up to the absolute cycle
// limit.  Structurally runFast with stepT in place of step; see fast.go
// for why slicing, skipping and batching preserve bit-identity.
func (m *Machine) runTranslated(limit int64) (bool, error) {
	if m.tr == nil {
		m.tr = translationFor(m.img, m.cfg)
	}
	// Another engine may have run the previous slice (a recorder can
	// force the reference engine) and rewritten cycleCause; make the
	// first idle cycle of each covered slot re-establish its cause.
	m.scuCauseIdle = false
	m.unitCauseIdle = [2]bool{}
	// Entries dispatched by another engine (or restored from a
	// checkpoint) carry no cached issue function; refill them.
	for c := range m.queues {
		q := &m.queues[c]
		for k := 0; k < q.n; k++ {
			if d := q.at(k); d.fn == nil {
				d.fn = m.tr.issue[d.idx]
			}
		}
	}
	slack := m.watchdogSlack()
	done := m.cancelDone()
	lastCheck := m.now
	for !m.done() {
		if m.now >= limit {
			return false, nil
		}
		m.now++
		if m.now > m.cfg.MaxCycles {
			return false, m.maxCyclesTrap()
		}
		if done != nil && m.now-lastCheck >= cancelCheckInterval {
			lastCheck = m.now
			select {
			case <-done:
				return false, m.cfg.Ctx.Err()
			default:
			}
		}
		loadStalls := m.stats.LoadStalls
		branchStalls := m.stats.BranchStalls
		ifuFull := m.stats.IFUStallFull
		m.scuProgress = false
		m.otherProgress = false
		m.stepT()
		if m.err != nil {
			return false, m.err
		}
		if m.now-m.lastProgress > int64(m.cfg.MemLatency)+slack {
			return false, &DeadlockError{Snapshot: m.snapshot()}
		}
		if m.otherProgress {
			continue
		}
		dLoad := m.stats.LoadStalls - loadStalls
		dBranch := m.stats.BranchStalls - branchStalls
		dIFU := m.stats.IFUStallFull - ifuFull
		if m.scuProgress {
			if err := m.batchSCU(dLoad, dBranch, dIFU, limit); err != nil {
				return false, err
			}
		} else {
			m.idleSkip(dLoad, dBranch, dIFU, slack, limit)
		}
	}
	m.stats.Cycles = m.now
	return true, nil
}

// stepT evaluates one machine cycle through the closure tables.  The
// phase order is step()'s; the store matcher and memory server are
// skipped outright on the (common) cycles where their queues are empty
// — on such cycles they are no-ops in the reference too.
func (m *Machine) stepT() {
	m.portsLeft = m.cfg.MemPorts
	if m.unmatchedStores[0][0].n|m.unmatchedStores[0][1].n|
		m.unmatchedStores[1][0].n|m.unmatchedStores[1][1].n != 0 {
		m.matchStores()
	}
	m.stepSCUsT()
	if m.writeQueue.n != 0 || m.unserved != 0 {
		m.serveMemory()
	}
	m.stepUnitT(0)
	m.stepUnitT(1)
	c := m.ifuCycleT()
	m.unitCounts[unitIFU].Add(c)
	m.cycleCause[unitIFU] = c
}

// stepSCUsT runs the SCUs, bulk-charging the all-idle case (no active
// stream with elements left — exactly the per-unit Idle condition of
// stepSCUs) without the per-unit scan bookkeeping.
func (m *Machine) stepSCUsT() {
	if m.activeSCUs != 0 {
		for _, s := range m.scus {
			if s.active && s.remaining != 0 {
				m.flushSCUIdle()
				m.scuCauseIdle = false
				m.stepSCUs()
				return
			}
		}
	}
	// All SCUs idle: defer the per-unit charge (flushed before the
	// counts are observed) and write the Idle causes only once per
	// stretch — idleSkip reads cycleCause every no-progress cycle.
	if !m.scuCauseIdle {
		for u := unitSCU0; u < len(m.unitCounts); u++ {
			m.cycleCause[u] = telemetry.CauseIdle
		}
		m.scuCauseIdle = true
	}
	m.scuIdleDeferred++
}

// stepUnitT is stepUnit through the issue table: the head's compiled
// issue function performs the hazard checks and (on issue) the
// instruction's effect, returning the cycle's cause for accounting.
func (m *Machine) stepUnitT(c int) {
	q := &m.queues[c]
	if q.n == 0 {
		// Empty queue: defer the Idle charge; write the cause once per
		// idle stretch (idleSkip and batchSCU read cycleCause).
		if !m.unitCauseIdle[c] {
			m.cycleCause[unitIEU+c] = telemetry.CauseIdle
			m.unitCauseIdle[c] = true
		}
		m.unitIdleDeferred[c]++
		return
	}
	u := unitIEU + c
	d := q.at(0)
	cause := d.fn(m, d)
	if cause == telemetry.CauseFIFOEmpty {
		m.stats.LoadStalls++
	}
	m.unitCauseIdle[c] = false
	m.unitCounts[u].Add(cause)
	m.cycleCause[u] = cause
}

// ifuCycleT is ifuCycle through the IFU table.  The zero-cost budget,
// the stall-after-progress promotion to Issued, and the out-of-range
// fault live here; everything per-instruction lives in the closures.
func (m *Machine) ifuCycleT() telemetry.Cause {
	if m.halted {
		return telemetry.CauseIdle
	}
	if m.ifuWait > 0 {
		m.ifuWait--
		m.progress()
		return telemetry.CauseFetch
	}
	ifu := m.tr.ifu
	did := false
	for zc := 0; zc < maxZeroCostOps; zc++ {
		pc := m.pc
		if pc < 0 || pc >= len(ifu) {
			m.fail("pc out of range: %d", pc)
			if did {
				return telemetry.CauseIssued
			}
			return telemetry.CauseIdle
		}
		cause, action := ifu[pc](m)
		switch action {
		case ifuCont:
			did = true
		case ifuStop:
			return cause
		default: // ifuStall
			if did {
				return telemetry.CauseIssued
			}
			return cause
		}
	}
	return telemetry.CauseIssued // zero-cost budget exhausted mid-cycle
}
