package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// Combine performs instruction combining for WM's dual-operation
// instruction format, merging a single-use producer into its consumer:
//
//	t := a op1 b          =>    u := (a op1 b) op2 c
//	u := t op2 c
//
// and FIFO-read forwarding, which folds a dequeue into its only
// consumer (giving the paper's "f0 := (f0-f0)*f20" shapes):
//
//	t := f0               =>    u := (f0 - x) * y
//	u := (t - x) * y
//
// Both transformations respect the constraints that make them legal on
// the hardware: at most two operations per instruction, producer and
// consumer in the same basic block, no intervening redefinition of the
// producer's operands, the producer's destination dead afterwards, and
// — for FIFO forwarding — no intervening read of the same FIFO (queue
// order must be preserved).
func Combine(f *rtl.Func) (bool, error) {
	changed := false
	for round := 0; round < 5000; round++ {
		more, err := combineOnce(f)
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

func combineOnce(f *rtl.Func) (bool, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Liveness()
	for _, b := range g.Blocks {
		if combineBlock(f, g, b) {
			return true, nil
		}
	}
	return false, nil
}

func combineBlock(f *rtl.Func, g *cfg.Graph, b *cfg.Block) bool {
	// liveAfter[n-b.Start] = registers live after instruction n.
	liveAfter := make([]cfg.RegSet, b.End-b.Start)
	g.LiveAtEach(b, func(idx int, i *rtl.Instr, after cfg.RegSet) {
		liveAfter[idx-b.Start] = after.Clone()
	})
	// Scan backwards: merging the latest producer first lets runs of
	// consecutive dequeues fold into one consumer in queue order.
	for n := b.End - 1; n >= b.Start; n-- {
		prod := f.Code[n]
		if prod.Kind != rtl.KAssign || prod.IsCompare() {
			continue
		}
		d := prod.Dst
		if d.IsZero() || d.IsFIFO() {
			continue
		}
		isFIFOFwd := prod.HasFIFORead()
		if isFIFOFwd {
			// Only forward a bare dequeue t := f0.
			if rx, ok := prod.Src.(rtl.RegX); !ok || !rx.Reg.IsFIFO() {
				continue
			}
		}
		// Find the unique consumer within the block.
		consumerIdx := -1
		uses := 0
		for k := n + 1; k < b.End; k++ {
			c := f.Code[k]
			c.EachUse(func(u rtl.Reg) {
				if u == d {
					uses++
					if consumerIdx == -1 {
						consumerIdx = k
					}
				}
			})
			if redefines(c, d) {
				break
			}
		}
		if consumerIdx == -1 || uses != 1 {
			continue
		}
		if liveAfter[consumerIdx-b.Start].Has(d) {
			continue // value needed later (another block or after redef)
		}
		cons := f.Code[consumerIdx]
		if !mergeAllowed(f, b, n, consumerIdx, prod, cons, isFIFOFwd) {
			continue
		}
		// Substitute and check the result stays a legal dual-op RTL.
		merged := substituteInstr(cons, d, prod.Src)
		if !legalAfterMerge(merged) {
			continue
		}
		f.Code[consumerIdx] = merged
		f.Remove(n)
		return true
	}
	return false
}

func redefines(i *rtl.Instr, r rtl.Reg) bool {
	if d, ok := i.Def(); ok && d == r {
		return true
	}
	if i.Kind == rtl.KCall && !r.IsVirtual() {
		return true
	}
	return false
}

// mergeAllowed checks the path between producer and consumer.
func mergeAllowed(f *rtl.Func, b *cfg.Block, prodIdx, consIdx int, prod, cons *rtl.Instr, fifoFwd bool) bool {
	var fifo rtl.Reg
	if fifoFwd {
		fifo = prod.Src.(rtl.RegX).Reg
	}
	// Operands of the producer must not be redefined in between, and —
	// for FIFO forwarding — nothing in between may read the same FIFO.
	for k := prodIdx + 1; k < consIdx; k++ {
		mid := f.Code[k]
		if mid.Kind == rtl.KCall {
			return false
		}
		bad := false
		rtl.ExprRegs(prod.Src, func(r rtl.Reg) {
			if !r.IsFIFO() && redefines(mid, r) {
				bad = true
			}
		})
		if bad {
			return false
		}
		if fifoFwd {
			readsFIFO := false
			mid.EachUse(func(u rtl.Reg) {
				if u == fifo {
					readsFIFO = true
				}
			})
			if readsFIFO {
				return false
			}
		}
	}
	// If the consumer already reads the same FIFO directly, the merge
	// is only legal when the forwarded read lands *before* every
	// existing read in the consumer's left-to-right evaluation order:
	// the producer's dequeue is older, so it must stay first.  This is
	// what allows the paper's "f0 := (f0 - f0) * f20" shape, where the
	// first f0 is the older (y[i]) entry and the second the newer
	// (x[i-1]) one.
	if fifoFwd {
		order := evalOrderReads(cons)
		prodPos, firstFifo := -1, -1
		for k, r := range order {
			if r == prod.Dst && prodPos == -1 {
				prodPos = k
			}
			if r == fifo && firstFifo == -1 {
				firstFifo = k
			}
		}
		if firstFifo != -1 && (prodPos == -1 || prodPos > firstFifo) {
			return false
		}
	}
	// Never merge into stream bases/counts (the IFU reads those).
	if cons.Kind != rtl.KAssign && cons.Kind != rtl.KLoad && cons.Kind != rtl.KStore {
		return false
	}
	return true
}

// evalOrderReads returns the registers an instruction reads, in the
// order the hardware's operand fetch dequeues them (left to right
// through each operand expression).
func evalOrderReads(i *rtl.Instr) []rtl.Reg {
	var order []rtl.Reg
	i.EachUseExpr(func(e rtl.Expr) {
		rtl.ExprRegs(e, func(r rtl.Reg) { order = append(order, r) })
	})
	return order
}

func substituteInstr(i *rtl.Instr, from rtl.Reg, to rtl.Expr) *rtl.Instr {
	c := i.Clone()
	c.MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.SubstReg(e, from, to) })
	return c
}

// legalAfterMerge enforces the WM instruction format on the merged
// result: at most two operator nodes, at most three register operands,
// and no multi-word materializations (symbols, float immediates) nested
// inside an expression.
func legalAfterMerge(i *rtl.Instr) bool {
	ok := true
	check := func(e rtl.Expr) {
		if rtl.ExprSize(e) > 2 {
			ok = false
		}
		regs := 0
		rtl.ExprRegs(e, func(rtl.Reg) { regs++ })
		if regs > 3 {
			ok = false
		}
		rtl.WalkExpr(e, func(x rtl.Expr) {
			switch x.(type) {
			case rtl.Sym:
				if !rtl.EqualExpr(x, e) {
					ok = false
				}
			case rtl.FImm:
				if f := x.(rtl.FImm); f.V != 0 && !rtl.EqualExpr(x, e) {
					ok = false
				}
			case rtl.Cvt:
				// Conversions synchronize the units; keep them alone.
				if !rtl.EqualExpr(x, e) {
					ok = false
				}
			}
		})
	}
	i.EachUseExpr(check)
	return ok
}
