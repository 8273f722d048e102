package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// SinkCopies rewrites the expander's assignment pattern
//
//	t := expr        =>    r := expr
//	r := t                 (uses of t become r)
//
// computing the expression directly into its destination.  This is what
// turns the naive "t := k + i; k := t" of a source-level assignment into
// the canonical induction-variable increment "k := k + i" that the
// recurrence, streaming and trip-count analyses recognize.
//
// Legality (block-local, conservative):
//
//   - t is a single-definition virtual register defined in the same
//     block before the copy;
//   - nothing between the definition and the copy reads or writes
//     either t or r (the definition's own operands may read r);
//   - every other use of t sits after the copy in the same block,
//     before any redefinition of r, and t is dead at the block's end.
func SinkCopies(f *rtl.Func) (bool, error) {
	changed := false
	for round := 0; round < 256; round++ {
		more, err := sinkOnce(f)
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

func sinkOnce(f *rtl.Func) (bool, error) {
	defCount := map[rtl.Reg]int{}
	useIdx := map[rtl.Reg][]int{}
	for n, i := range f.Code {
		if d, ok := i.Def(); ok {
			defCount[d]++
		}
		i.EachUse(func(u rtl.Reg) {
			useIdx[u] = append(useIdx[u], n)
		})
	}
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Liveness()
	for c := 0; c < len(f.Code); c++ {
		copyI := f.Code[c]
		if copyI.Kind != rtl.KAssign {
			continue
		}
		tx, isReg := copyI.Src.(rtl.RegX)
		if !isReg {
			continue
		}
		t, r := tx.Reg, copyI.Dst
		if !t.IsVirtual() || defCount[t] != 1 || t == r {
			continue
		}
		if r.IsZero() || r.IsFIFO() || t.IsFIFO() {
			continue
		}
		b := g.BlockOf(c)
		if b == nil {
			continue
		}
		// Find t's definition within the block, before the copy.
		d := -1
		for n := b.Start; n < c; n++ {
			if def, ok := f.Code[n].Def(); ok && def == t {
				d = n
			}
		}
		if d == -1 || f.Code[d].Kind != rtl.KAssign {
			continue
		}
		// Between definition and copy: no access to t or r.
		clean := true
		for n := d + 1; n < c; n++ {
			mid := f.Code[n]
			if def, ok := mid.Def(); ok && (def == t || def == r) {
				clean = false
				break
			}
			if mid.Kind == rtl.KCall && (!t.IsVirtual() || !r.IsVirtual()) {
				clean = false
				break
			}
			mid.EachUse(func(u rtl.Reg) {
				if u == t || u == r {
					clean = false
				}
			})
			if !clean {
				break
			}
		}
		if !clean {
			continue
		}
		// All other uses of t must be in (c, b.End), with r stable.
		ok := true
		var rewrites []int
		for _, u := range useIdx[t] {
			if u == c {
				continue
			}
			if u <= c || u >= b.End {
				ok = false
				break
			}
			rewrites = append(rewrites, u)
		}
		if !ok {
			continue
		}
		// t dead at block end; r not redefined before the last use of t.
		if b.LiveOut.Has(t) {
			continue
		}
		last := c
		for _, u := range rewrites {
			if u > last {
				last = u
			}
		}
		for n := c + 1; n <= last && ok; n++ {
			if def, okd := f.Code[n].Def(); okd && def == r {
				isUse := false
				for _, u := range rewrites {
					if u == n {
						isUse = true
					}
				}
				// A rewrite site may also redefine r only if it is the
				// last one.
				if !isUse || n != last {
					ok = false
				}
			}
			if f.Code[n].Kind == rtl.KCall && !r.IsVirtual() {
				ok = false
			}
		}
		if !ok {
			continue
		}
		// Apply: compute into r, drop the copy, rename trailing uses.
		f.Code[d].Dst = r
		for _, u := range rewrites {
			f.Code[u].MapExprs(func(e rtl.Expr) rtl.Expr {
				return rtl.SubstReg(e, t, rtl.RX(r))
			})
		}
		f.Remove(c)
		return true, nil
	}
	return false, nil
}
