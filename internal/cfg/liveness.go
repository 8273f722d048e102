package cfg

import "wmstream/internal/rtl"

// trackable reports whether liveness tracks the register.  The zero
// registers read as constants and FIFO registers have queue semantics
// (their "value" lives in hardware queues, not in the cell), so neither
// participates in register liveness.
func trackable(r rtl.Reg) bool { return !r.IsZero() && !r.IsFIFO() }

// InstrUses calls fn for every trackable register the instruction
// reads, including the implicit reads of calls and returns.
func InstrUses(i *rtl.Instr, fn func(rtl.Reg)) {
	switch i.Kind {
	case rtl.KCall:
		for _, r := range i.Args {
			if trackable(r) {
				fn(r)
			}
		}
		fn(rtl.RegSP)
	case rtl.KRet:
		// The ABI returns results in r2/f2; without per-function result
		// annotations at every return we conservatively treat both as
		// read, plus the link register and stack pointer.
		fn(rtl.R(rtl.ResultReg))
		fn(rtl.F(rtl.ResultReg))
		fn(rtl.RegLR)
		fn(rtl.RegSP)
	default:
		i.EachUse(func(r rtl.Reg) {
			if trackable(r) {
				fn(r)
			}
		})
	}
}

// InstrDefs calls fn for every trackable register the instruction
// writes.  Calls clobber every caller-saved register.
func InstrDefs(i *rtl.Instr, fn func(rtl.Reg)) {
	switch i.Kind {
	case rtl.KCall:
		rtl.CallClobbers(func(r rtl.Reg) {
			if trackable(r) {
				fn(r)
			}
		})
	case rtl.KAssign:
		if trackable(i.Dst) {
			fn(i.Dst)
		}
	}
}

// Liveness computes LiveIn/LiveOut for every block with the standard
// backward iterative data-flow algorithm.  Every set of one function
// is a bit vector of the same width, so the transfer function
// in = use | (out &^ def) runs a word at a time over flat storage.
func (g *Graph) Liveness() {
	f := g.F
	nb := len(g.Blocks)
	// Per-block use/def summaries, sized from the function's virtual
	// register count; a register beyond it (hand-built code) grows its
	// set, and the width below absorbs it.
	sw := (2*(rtl.VirtualBase+max(f.NumVirt(rtl.Int), f.NumVirt(rtl.Float))) + 63) / 64
	w := sw
	use := make([]RegSet, nb)
	def := make([]RegSet, nb)
	summary := make([]uint64, 2*nb*sw)
	for _, b := range g.Blocks {
		k := 2 * b.Index * sw
		u := RegSet{summary[k : k+sw : k+sw]}
		d := RegSet{summary[k+sw : k+2*sw : k+2*sw]}
		for _, i := range b.Instrs(f) {
			InstrUses(i, func(r rtl.Reg) {
				if !d.Has(r) {
					u.Add(r)
				}
			})
			InstrDefs(i, func(r rtl.Reg) { d.Add(r) })
		}
		use[b.Index], def[b.Index] = u, d
		w = max(w, len(u.words), len(d.words))
	}
	// Every live register is used somewhere, so w words hold them all.
	live := make([]uint64, 2*nb*w)
	for _, b := range g.Blocks {
		k := 2 * b.Index * w
		b.LiveIn = RegSet{live[k : k+w : k+w]}
		b.LiveOut = RegSet{live[k+w : k+2*w : k+2*w]}
		use[b.Index].grow(w)
		def[b.Index].grow(w)
	}
	// Backward over reverse postorder is fastest; correctness does not
	// depend on order.
	order := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for k := len(order) - 1; k >= 0; k-- {
			b := order[k]
			in, out := b.LiveIn.words, b.LiveOut.words
			u, d := use[b.Index].words, def[b.Index].words
			for j := range out {
				var o uint64
				for _, s := range b.Succs {
					o |= s.LiveIn.words[j]
				}
				if n := u[j] | o&^d[j]; o != out[j] || n != in[j] {
					out[j], in[j] = o, n
					changed = true
				}
			}
		}
	}
}

// LiveAtEach walks block b backward and calls fn for every instruction
// with the set of registers live immediately *after* it.  Liveness must
// have been computed.  The set passed to fn is reused between calls;
// clone it to retain.
func (g *Graph) LiveAtEach(b *Block, fn func(idx int, i *rtl.Instr, liveAfter RegSet)) {
	live := b.LiveOut.Clone()
	for n := b.End - 1; n >= b.Start; n-- {
		i := g.F.Code[n]
		fn(n, i, live)
		InstrDefs(i, func(r rtl.Reg) { live.Remove(r) })
		InstrUses(i, func(r rtl.Reg) { live.Add(r) })
	}
}
