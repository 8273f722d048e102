package rtl

// Clone returns a deep copy of the function: the code slice and every
// instruction are fresh, so mutating the clone (or the original) never
// affects the other.  The instruction copies share one backing array,
// so a snapshot costs two allocations plus one per call's Args.
// Expression trees are shared — they are immutable by convention
// (transformations replace operands via MapExprs rather than editing
// nodes in place), the same convention Instr.Clone relies on.  Clone
// is the snapshot primitive of the optimizer's pass sandbox: the
// pipeline clones a function before each pass so a faulty
// transformation can be rolled back.
func (f *Func) Clone() *Func {
	c := *f
	c.Code = make([]*Instr, len(f.Code))
	instrs := make([]Instr, len(f.Code))
	for n, i := range f.Code {
		instrs[n] = *i
		if i.Args != nil {
			instrs[n].Args = append([]Reg(nil), i.Args...)
		}
		c.Code[n] = &instrs[n]
	}
	return &c
}

// Restore overwrites the function in place with the snapshot's state.
// The snapshot must not be used afterwards (the function takes
// ownership of its storage).  Restoring through the existing *Func
// keeps every outstanding reference to the function valid, which is
// what lets the pass sandbox roll back without re-threading pointers.
func (f *Func) Restore(snap *Func) { *f = *snap }
