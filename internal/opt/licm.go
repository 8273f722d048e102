package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// LICM hoists loop-invariant assignments into loop preheaders.  It is
// the "code motion" phase the paper requires to run before recurrence
// detection: it moves the llh/sll address materializations of global
// arrays out of the loop (Figure 4 lines 4-9).
func LICM(f *rtl.Func) (bool, error) {
	changed := false
	// Innermost-first so invariants bubble outward over iterations of
	// the fixpoint driver.  Each inner round hoists one instruction.
	for round := 0; round < 500; round++ {
		more, err := licmOnce(f)
		if err != nil {
			return changed, err
		}
		if !more {
			return changed, nil
		}
		changed = true
	}
	return changed, nil
}

func licmOnce(f *rtl.Func) (bool, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Dominators()
	loops := g.NaturalLoops()
	for _, l := range loops {
		moved, err := hoistLoop(f, g, l)
		if err != nil {
			return false, err
		}
		if moved {
			return true, nil // code moved: rebuild analyses
		}
	}
	return false, nil
}

func hoistLoop(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) (bool, error) {
	pre := EnsurePreheader(f, g, l)
	if pre < 0 {
		return false, nil
	}
	// Re-analyze after potential preheader insertion.
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Dominators()
	l = findLoopByHeaderLabel(g, headerLabel(f, pre))
	if l == nil {
		return false, nil
	}

	// Registers defined in the loop, and how many times.
	defs := map[rtl.Reg]int{}
	hasCall := false
	for _, b := range l.BlockList() {
		for _, i := range b.Instrs(f) {
			if d, ok := i.Def(); ok {
				defs[d]++
			}
			if i.Kind == rtl.KCall {
				hasCall = true
			}
		}
	}
	invariantReg := func(r rtl.Reg) bool {
		if r.IsZero() {
			return true
		}
		if r.IsFIFO() {
			return false
		}
		if hasCall && !r.IsVirtual() {
			return false // calls clobber physical registers
		}
		return defs[r] == 0
	}

	if hoistInvariantLoads(f, g, l) {
		return true, nil
	}

	preInsert := preheaderInsertPos(f, pre)
	// Nothing moves before the first hoist, which returns, so one
	// liveness solution serves every candidate of this visit.
	live := false
	for _, b := range l.BlockList() {
		if !dominatesAllLatches(g, l, b) {
			continue
		}
		for n := b.Start; n < b.End; n++ {
			i := f.Code[n]
			if i.Kind != rtl.KAssign || i.HasSideEffects() {
				continue
			}
			d := i.Dst
			if d.IsZero() || d.IsFIFO() || defs[d] != 1 {
				continue
			}
			if !safeToSpeculate(i.Src) {
				continue
			}
			inv := true
			rtl.ExprRegs(i.Src, func(r rtl.Reg) {
				if !invariantReg(r) {
					inv = false
				}
			})
			if !inv {
				continue
			}
			// The destination must not be live on entry to the loop
			// (its pre-loop value would be clobbered by hoisting).
			if !live {
				g.Liveness()
				live = true
			}
			if l.Header.LiveIn.Has(d) && usedBeforeDefInLoop(f, g, l, d, n) {
				continue
			}
			f.Remove(n)
			if n < preInsert {
				preInsert--
			}
			f.Insert(preInsert, i)
			return true, nil // structural change: restart analysis
		}
	}
	return false, nil
}

// hoistInvariantLoads moves a load/dequeue pair of an invariant
// address out of the loop when no store in the loop can touch that
// address.  This is what keeps scalar globals such as loop bounds in
// registers (the paper's Figure 4 has n in r23), which the trip-count
// analysis of the streaming pass depends on.
func hoistInvariantLoads(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) bool {
	ctx := analyzeLoop(f, g, l)
	if ctx.hasCall {
		return false
	}
	// Collect the base regions of every store in the loop; an unknown
	// store blocks all load hoisting.
	var storeBases []string
	for _, b := range l.BlockList() {
		for n := b.Start; n < b.End; n++ {
			i := f.Code[n]
			if i.Kind == rtl.KStore || i.Kind == rtl.KStreamOut {
				if i.Kind == rtl.KStreamOut {
					return false
				}
				lin := ctx.linearize(i.Addr, n, 0)
				if !lin.ok {
					return false
				}
				key := lin.baseKey()
				if key[0] != '_' {
					return false // pointer store could alias anything
				}
				storeBases = append(storeBases, key)
			}
		}
	}
	for _, b := range l.BlockList() {
		if !dominatesAllLatches(g, l, b) {
			continue
		}
		for n := b.Start; n+1 < b.End; n++ {
			ld := f.Code[n]
			if ld.Kind != rtl.KLoad {
				continue
			}
			deq := f.Code[n+1]
			if deq.Kind != rtl.KAssign {
				continue
			}
			rx, isReg := deq.Src.(rtl.RegX)
			fifo := rtl.Reg{Class: ld.MemClass, N: ld.FIFO.N}
			if !isReg || rx.Reg != fifo || deq.Dst.IsFIFO() || deq.Dst.IsZero() {
				continue
			}
			if ctx.defCount[deq.Dst] != 1 {
				continue
			}
			// Invariant address?
			inv := true
			rtl.ExprRegs(ld.Addr, func(r rtl.Reg) {
				if !ctx.invariant(r) {
					inv = false
				}
			})
			if !inv {
				continue
			}
			// Alias-free against every store?
			lin := ctx.linearize(ld.Addr, n, 0)
			if !lin.ok {
				continue
			}
			key := lin.baseKey()
			if key[0] != '_' {
				continue // pointer load: region unknown
			}
			aliased := false
			for _, sb := range storeBases {
				if sb == key {
					aliased = true
				}
			}
			if aliased {
				continue
			}
			// Move the pair to the end of the preheader.
			hdr := headerLabelIndex(f, g, l)
			if hdr < 0 || hdr > n {
				continue
			}
			f.Remove(n + 1)
			f.Remove(n)
			f.Insert(hdr, ld, deq)
			return true
		}
	}
	return false
}

// usedBeforeDefInLoop reports whether d could be read in the loop
// before the definition at index defIdx executes — i.e. whether the
// pre-loop value of d is observable.  With a single in-loop definition
// that dominates all latches, only uses on the path from the header to
// the definition matter; we approximate by checking liveness into the
// definition's block.
func usedBeforeDefInLoop(f *rtl.Func, g *cfg.Graph, l *cfg.Loop, d rtl.Reg, defIdx int) bool {
	b := g.BlockOf(defIdx)
	if b == nil {
		return true
	}
	// Within the block: any earlier use?
	for n := b.Start; n < defIdx; n++ {
		for _, u := range f.Code[n].Uses(nil) {
			if u == d {
				return true
			}
		}
	}
	// Into the block from elsewhere in the loop: live-in implies a use
	// upstream; if the block is the header, the live-in value is the
	// hoisted one (fine), otherwise conservative.
	if b == l.Header {
		return false
	}
	return b.LiveIn.Has(d)
}

// safeToSpeculate reports whether evaluating e cannot trap: division by
// a non-constant is excluded.
func safeToSpeculate(e rtl.Expr) bool {
	safe := true
	rtl.WalkExpr(e, func(x rtl.Expr) {
		if b, ok := x.(rtl.Bin); ok && (b.Op == rtl.Div || b.Op == rtl.Rem) {
			if c, isC := b.R.(rtl.Imm); !isC || c.V == 0 {
				safe = false
			}
		}
	})
	return safe
}

func dominatesAllLatches(g *cfg.Graph, l *cfg.Loop, b *cfg.Block) bool {
	for _, latch := range l.Latches {
		if !g.Dominates(b, latch) {
			return false
		}
	}
	return true
}

// --- preheader management ------------------------------------------------

// freshPreheaderLabel picks the lowest unused LP<n> label name in the
// function.  Numbering is per-function (labels are function-scoped in
// the linker) and derived only from the function's own code, so
// optimizing functions concurrently — or in any order — yields
// identical names.  A package-level counter here would be both a data
// race and a determinism leak under the parallel engine.
func freshPreheaderLabel(f *rtl.Func) string {
	max := 0
	for _, i := range f.Code {
		if i.Kind != rtl.KLabel || len(i.Name) < 3 || i.Name[:2] != "LP" {
			continue
		}
		if n, ok := atoi(i.Name[2:]); ok && n > max {
			max = n
		}
	}
	return "LP" + itoa(max+1)
}

// EnsurePreheader guarantees the loop has a dedicated preheader block
// and returns the index of the header's label instruction (from which
// preheaderInsertPos derives where to insert).  It returns -1 when the
// loop header has no label (cannot happen for generated code).
//
// The transformation is textual: a fresh label is placed immediately
// before the header label and every branch to the header from outside
// the loop is retargeted to it.  Fall-through entry naturally passes
// through the new label.
func EnsurePreheader(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) int {
	if l.Preheader != nil {
		return headerLabelIndex(f, g, l)
	}
	hdrIdx := headerLabelIndex(f, g, l)
	if hdrIdx < 0 {
		return -1
	}
	hdrName := f.Code[hdrIdx].Name
	preName := freshPreheaderLabel(f)
	// Retarget outside branches.
	inLoop := map[int]bool{}
	for _, b := range l.BlockList() {
		for n := b.Start; n < b.End; n++ {
			inLoop[n] = true
		}
	}
	for n, i := range f.Code {
		if inLoop[n] {
			continue
		}
		switch i.Kind {
		case rtl.KJump, rtl.KCondJump, rtl.KJumpNotDone:
			if i.Target == hdrName {
				i.Target = preName
			}
		}
	}
	f.Insert(hdrIdx, rtl.NewLabel(preName))
	return hdrIdx + 1
}

// preheaderInsertPos returns the position where hoisted code should be
// inserted: immediately before the header label (i.e. at the end of the
// preheader).
func preheaderInsertPos(f *rtl.Func, hdrLabelIdx int) int { return hdrLabelIdx }

func headerLabelIndex(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) int {
	for n := l.Header.Start; n < l.Header.End; n++ {
		if f.Code[n].Kind == rtl.KLabel {
			return n
		}
	}
	return -1
}

func headerLabel(f *rtl.Func, hdrLabelIdx int) string {
	if hdrLabelIdx >= 0 && hdrLabelIdx < len(f.Code) && f.Code[hdrLabelIdx].Kind == rtl.KLabel {
		return f.Code[hdrLabelIdx].Name
	}
	return ""
}

func findLoopByHeaderLabel(g *cfg.Graph, label string) *cfg.Loop {
	if label == "" {
		return nil
	}
	hb := g.LabelBlock(label)
	if hb == nil {
		return nil
	}
	for _, l := range g.NaturalLoops() {
		if l.Header == hb {
			return l
		}
	}
	return nil
}

func atoi(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
