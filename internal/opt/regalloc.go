package opt

import (
	"fmt"
	"sort"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// Register pools available to the assigner.  r0/r1 f0/f1 are FIFOs,
// r2..r9/f2..f9 carry arguments and results, r29/r30/r31 are
// SP/LR/zero, leaving these for allocation.
var pools = [rtl.NumClasses][]int{
	rtl.Int:   poolRange(10, 28),
	rtl.Float: poolRange(10, 30),
}

func poolRange(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// RegAlloc assigns every virtual register to a hardware register using
// linear-scan allocation.  Virtual registers live across a call are
// spilled to the stack frame (the ABI has no callee-saved registers),
// as are registers that do not fit the pool.  Spill traffic uses the
// secondary FIFO pair (r1/f1) so that it can never disturb the queue
// order of ordinary loads and stores, which use r0/f0.
func RegAlloc(f *rtl.Func) error {
	spilled := map[rtl.Reg]bool{}
	for iter := 0; iter < 100; iter++ {
		iv, err := buildIntervals(f)
		if err != nil {
			return err
		}
		// Spill everything live across a call first.
		var toSpill []rtl.Reg
		for r, in := range iv.acrossCall {
			if in && !spilled[r] {
				toSpill = append(toSpill, r)
			}
		}
		if len(toSpill) > 0 {
			sortRegs(toSpill)
			for _, r := range toSpill {
				if err := spill(f, r); err != nil {
					return err
				}
				spilled[r] = true
			}
			continue
		}
		// Try to assign.
		victim, assignment := linearScan(iv)
		if victim == nil {
			applyAssignment(f, assignment)
			return nil
		}
		if spilled[*victim] {
			return fmt.Errorf("regalloc: %s respilled; pressure unresolvable", *victim)
		}
		if err := spill(f, *victim); err != nil {
			return err
		}
		spilled[*victim] = true
	}
	return fmt.Errorf("regalloc: did not converge")
}

type interval struct {
	reg        rtl.Reg
	start, end int
}

type intervalSet struct {
	list       []interval
	acrossCall map[rtl.Reg]bool
}

func buildIntervals(f *rtl.Func) (*intervalSet, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return nil, err
	}
	g.Liveness()
	start := map[rtl.Reg]int{}
	end := map[rtl.Reg]int{}
	touch := func(r rtl.Reg, pos int) {
		if !r.IsVirtual() {
			return
		}
		if s, ok := start[r]; !ok || pos < s {
			start[r] = pos
		}
		if e, ok := end[r]; !ok || pos > e {
			end[r] = pos
		}
	}
	across := map[rtl.Reg]bool{}
	for _, b := range g.Blocks {
		g.LiveAtEach(b, func(idx int, i *rtl.Instr, after cfg.RegSet) {
			after.Each(func(r rtl.Reg) {
				touch(r, idx)
				if idx+1 < b.End {
					touch(r, idx+1)
				}
			})
			cfg.InstrUses(i, func(r rtl.Reg) { touch(r, idx) })
			cfg.InstrDefs(i, func(r rtl.Reg) { touch(r, idx) })
			if i.Kind == rtl.KCall {
				after.Each(func(r rtl.Reg) {
					if r.IsVirtual() {
						across[r] = true
					}
				})
			}
		})
		// Live-in/out at block boundaries.
		b.LiveIn.Each(func(r rtl.Reg) { touch(r, b.Start) })
		if b.End > 0 {
			b.LiveOut.Each(func(r rtl.Reg) { touch(r, b.End-1) })
		}
	}
	set := &intervalSet{acrossCall: across}
	for r, s := range start {
		set.list = append(set.list, interval{r, s, end[r]})
	}
	sort.Slice(set.list, func(i, j int) bool {
		if set.list[i].start != set.list[j].start {
			return set.list[i].start < set.list[j].start
		}
		return set.list[i].reg.N < set.list[j].reg.N
	})
	return set, nil
}

// linearScan attempts a full assignment; on failure it returns the
// register chosen for spilling (the live interval with the furthest
// end).
func linearScan(iv *intervalSet) (victim *rtl.Reg, assignment map[rtl.Reg]rtl.Reg) {
	assignment = map[rtl.Reg]rtl.Reg{}
	type activeEntry struct {
		interval
		phys int
	}
	var active [rtl.NumClasses][]activeEntry
	var free [rtl.NumClasses][]int
	for c := range pools {
		free[c] = append([]int{}, pools[c]...)
	}
	for _, cur := range iv.list {
		c := cur.reg.Class
		// Expire finished intervals.
		keep := active[c][:0]
		for _, a := range active[c] {
			if a.end >= cur.start {
				keep = append(keep, a)
			} else {
				free[c] = append(free[c], a.phys)
			}
		}
		active[c] = keep
		if len(free[c]) == 0 {
			// Spill the interval ending last (current or an active one).
			worst := cur
			for _, a := range active[c] {
				if a.end > worst.end {
					worst = a.interval
				}
			}
			v := worst.reg
			return &v, nil
		}
		sort.Ints(free[c])
		phys := free[c][0]
		free[c] = free[c][1:]
		assignment[cur.reg] = rtl.Reg{Class: c, N: phys}
		active[c] = append(active[c], activeEntry{cur, phys})
	}
	return nil, assignment
}

func applyAssignment(f *rtl.Func, assignment map[rtl.Reg]rtl.Reg) {
	rename := func(r rtl.Reg) rtl.Reg {
		if p, ok := assignment[r]; ok {
			return p
		}
		return r
	}
	for _, i := range f.Code {
		i.MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.RenameRegs(e, rename) })
		if i.Kind == rtl.KAssign {
			i.Dst = rename(i.Dst)
		}
		for n := range i.Args {
			i.Args[n] = rename(i.Args[n])
		}
	}
}

// spill rewrites every access of r through a stack slot.  Spill
// traffic normally travels through the secondary FIFO (r1/f1), which
// ordinary code never touches; inside the textual extent of a loop
// whose FIFO1 is bound to a stream it falls back to FIFO0, and when
// both are stream-bound the compilation fails loudly rather than
// corrupting queue order.
func spill(f *rtl.Func, r rtl.Reg) error {
	regions := streamRegions(f, r.Class)
	pickFIFO := func(at int) (rtl.Reg, error) {
		if !regions[rtl.FIFO1].contains(at) {
			return rtl.Reg{Class: r.Class, N: rtl.FIFO1}, nil
		}
		if !regions[rtl.FIFO0].contains(at) {
			return rtl.Reg{Class: r.Class, N: rtl.FIFO0}, nil
		}
		return rtl.Reg{}, fmt.Errorf("regalloc: spill site %d inside loops streaming both %s FIFOs", at, r.Class)
	}
	oldFrame := f.Frame
	slot := (f.Frame + 7) &^ 7
	f.Frame = slot + 8
	addr := func() rtl.Expr {
		return rtl.B(rtl.Add, rtl.RX(rtl.RegSP), rtl.I(int64(slot)))
	}
	for n := 0; n < len(f.Code); n++ {
		i := f.Code[n]
		usesR := false
		for _, u := range i.Uses(nil) {
			if u == r {
				usesR = true
			}
		}
		defsR := false
		if d, ok := i.Def(); ok && d == r {
			defsR = true
		}
		if !usesR && !defsR {
			continue
		}
		if usesR {
			fifo, err := pickFIFO(n)
			if err != nil {
				return err
			}
			nv := f.NewVirt(r.Class)
			f.Insert(n,
				rtl.NewLoad(fifo, addr(), 8),
				rtl.NewAssign(nv, rtl.RX(fifo)))
			n += 2
			i.MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.SubstReg(e, r, rtl.RX(nv)) })
			for k := range i.Args {
				if i.Args[k] == r {
					i.Args[k] = nv
				}
			}
			regions[rtl.FIFO0].shift(n-2, 2)
			regions[rtl.FIFO1].shift(n-2, 2)
		}
		if defsR {
			fifo, err := pickFIFO(n)
			if err != nil {
				return err
			}
			nv := f.NewVirt(r.Class)
			i.Dst = nv
			f.Insert(n+1,
				rtl.NewAssign(fifo, rtl.RX(nv)),
				rtl.NewStore(fifo, addr(), 8))
			n += 2
			regions[rtl.FIFO0].shift(n-1, 2)
			regions[rtl.FIFO1].shift(n-1, 2)
		}
	}
	patchFrame(f, oldFrame, f.Frame)
	return nil
}

// spanSet tracks the textual extents of loops whose FIFO is bound to a
// stream.
type spanSet []span

type span struct{ lo, hi int }

func (ss spanSet) contains(at int) bool {
	for _, s := range ss {
		if at >= s.lo && at <= s.hi {
			return true
		}
	}
	return false
}

func (ss spanSet) shift(from, by int) {
	for k := range ss {
		if ss[k].lo >= from {
			ss[k].lo += by
		}
		if ss[k].hi >= from {
			ss[k].hi += by
		}
	}
}

// streamRegions returns, per FIFO number, the spans from each stream
// instruction of the class to the matching jump-not-done (or function
// end) — the region in which spill traffic must avoid that FIFO.
func streamRegions(f *rtl.Func, c rtl.Class) map[int]spanSet {
	out := map[int]spanSet{rtl.FIFO0: nil, rtl.FIFO1: nil}
	for n, i := range f.Code {
		if (i.Kind != rtl.KStreamIn && i.Kind != rtl.KStreamOut) || i.MemClass != c {
			continue
		}
		hi := len(f.Code) - 1
		for k := n + 1; k < len(f.Code); k++ {
			j := f.Code[k]
			if j.Kind == rtl.KJumpNotDone {
				hi = k
				break
			}
		}
		out[i.FIFO.N] = append(out[i.FIFO.N], span{n, hi})
	}
	return out
}

// patchFrame updates (or inserts) the prologue/epilogue stack-pointer
// adjustments after the frame grew.
func patchFrame(f *rtl.Func, oldFrame, newFrame int) {
	if oldFrame == newFrame {
		return
	}
	patched := false
	for _, i := range f.Code {
		if i.Kind != rtl.KAssign || i.Dst != rtl.RegSP {
			continue
		}
		b, ok := i.Src.(rtl.Bin)
		if !ok {
			continue
		}
		if rx, isReg := b.L.(rtl.RegX); !isReg || rx.Reg != rtl.RegSP {
			continue
		}
		c, isImm := b.R.(rtl.Imm)
		if !isImm || c.V != int64(oldFrame) {
			continue
		}
		i.Src = rtl.Bin{Op: b.Op, L: b.L, R: rtl.Imm{V: int64(newFrame)}}
		patched = true
	}
	if !patched && oldFrame == 0 {
		// Leaf function without a frame: insert fresh prologue and
		// epilogues.
		f.Insert(0, rtl.NewAssign(rtl.RegSP,
			rtl.B(rtl.Sub, rtl.RX(rtl.RegSP), rtl.I(int64(newFrame)))))
		for n := 0; n < len(f.Code); n++ {
			if f.Code[n].Kind == rtl.KRet {
				f.Insert(n, rtl.NewAssign(rtl.RegSP,
					rtl.B(rtl.Add, rtl.RX(rtl.RegSP), rtl.I(int64(newFrame)))))
				n++
			}
		}
	}
}

func sortRegs(rs []rtl.Reg) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Class != rs[j].Class {
			return rs[i].Class < rs[j].Class
		}
		return rs[i].N < rs[j].N
	})
}
