package rtl

import "fmt"

// Kind enumerates RTL instruction kinds.
type Kind uint8

const (
	// KLabel is a branch target.  Label gives the name.
	KLabel Kind = iota
	// KAssign is dst := src.  If the top operator of Src is relational,
	// the instruction is a compare: it additionally enqueues a condition
	// code into the CC FIFO of the executing unit (the unit of Dst).
	KAssign
	// KLoad computes an address and issues a memory read request; the
	// data arrives in the input FIFO of the unit selected by MemClass
	// (readable as r0/f0, or r1/f1 when FIFO.N == 1).  Dst is unused
	// (architecturally the address result is discarded into r31).
	KLoad
	// KStore computes an address and issues a memory write request; the
	// datum is the oldest entry of the unit's output FIFO (enqueued by a
	// prior write to r0/f0).
	KStore
	// KJump is an unconditional branch, executed by the IFU at zero cost.
	KJump
	// KCondJump dequeues a condition code from the CC FIFO of class
	// CCClass and branches to Target when the code equals Sense.
	KCondJump
	// KStreamIn directs a stream control unit to read Count elements of
	// MemSize bytes starting at Base with byte stride Stride into the
	// FIFO register FIFO.
	KStreamIn
	// KStreamOut is the store-side analog of KStreamIn.
	KStreamOut
	// KStreamStop terminates an active (possibly infinite) stream on FIFO.
	KStreamStop
	// KJumpNotDone branches to Target while the stream feeding FIFO is
	// not exhausted (the paper's jNIf0).  Executed by the IFU.
	KJumpNotDone
	// KCall transfers control to function Name with arguments already in
	// ABI registers; clobbers all allocatable registers and memory.
	KCall
	// KRet returns from the current function.
	KRet
	// KHalt stops the machine (end of program).
	KHalt
	// KPut writes a value to the output device: a character (Fmt 'c'),
	// a decimal integer ('i') or a floating value ('d').  Src is the
	// value.  Unlike KCall, KPut clobbers nothing, so loops containing
	// output remain optimizable.
	KPut
)

var kindNames = [...]string{
	KLabel: "label", KAssign: "assign", KLoad: "load", KStore: "store",
	KJump: "jump", KCondJump: "condjump", KStreamIn: "sin",
	KStreamOut: "sout", KStreamStop: "sstop", KJumpNotDone: "jnd",
	KCall: "call", KRet: "ret", KHalt: "halt", KPut: "put",
}

func (k Kind) String() string { return kindNames[k] }

// Instr is a single RTL.  Which fields are meaningful depends on Kind;
// see the Kind constants.
type Instr struct {
	ID   int // stable id for diagnostics and listings
	Kind Kind

	// Line is the 1-based source line the instruction was generated
	// from (0 = unknown).  The expander stamps it, optimization passes
	// preserve it through Clone, the debug listing renders it as "@N",
	// and the linker builds the image's line table from it — the chain
	// the source-level profiler walks back.
	Line int

	Dst Reg  // KAssign
	Src Expr // KAssign

	Addr     Expr  // KLoad, KStore: address expression
	MemSize  int   // KLoad/KStore/streams: access size in bytes
	MemClass Class // KLoad/KStore/streams: unit whose FIFO carries the data

	Target  string // jumps: destination label
	Sense   bool   // KCondJump: branch when CC == Sense
	CCClass Class  // KCondJump: which unit's CC FIFO to consume

	FIFO   Reg  // streams, KJumpNotDone: FIFO register (r0/r1/f0/f1)
	Base   Expr // streams: base address (register or immediate expr)
	Count  Expr // streams: element count (register or immediate)
	Stride Expr // streams: byte stride (register or immediate — the
	// hardware takes the stride from a register, so run-time strides
	// such as the sieve's prime step are expressible)

	Name string // KCall: callee; KLabel: label name
	Args []Reg  // KCall: ABI registers carrying live-in arguments
	Fmt  byte   // KPut: 'c' (char), 'i' (int) or 'd' (double)

	Note string // free-form comment carried into listings
}

// ABI register ranges.  Arguments travel in r2..r9/f2..f9; results
// return in r2/f2.  Every allocatable register is caller-saved, so a
// call clobbers r2..r28 and f2..f30 (see CallClobbers).
const (
	FirstArgReg = 2
	LastArgReg  = 9
	ResultReg   = 2
)

// CallClobbers calls fn for every register a call may overwrite: all
// allocatable registers of both classes plus the link register.  The
// stack pointer, zero registers and FIFO registers are preserved (FIFOs
// must be drained before a call by construction).
func CallClobbers(fn func(Reg)) {
	for n := FirstArgReg; n < ZeroReg; n++ {
		if n != SP {
			fn(Reg{Int, n})
		}
		fn(Reg{Float, n})
	}
}

// NewAssign builds dst := src.
func NewAssign(dst Reg, src Expr) *Instr {
	return &Instr{Kind: KAssign, Dst: dst, Src: src}
}

// NewLoad builds a load of size bytes whose data lands in the input FIFO
// fifo (r0/r1/f0/f1 — class selects the unit).
func NewLoad(fifo Reg, addr Expr, size int) *Instr {
	return &Instr{Kind: KLoad, FIFO: fifo, Addr: addr, MemSize: size, MemClass: fifo.Class}
}

// NewStore builds a store of size bytes whose datum comes from the
// output FIFO fifo.
func NewStore(fifo Reg, addr Expr, size int) *Instr {
	return &Instr{Kind: KStore, FIFO: fifo, Addr: addr, MemSize: size, MemClass: fifo.Class}
}

// NewLabel builds a label pseudo-instruction.
func NewLabel(name string) *Instr { return &Instr{Kind: KLabel, Name: name} }

// NewJump builds an unconditional jump.
func NewJump(target string) *Instr { return &Instr{Kind: KJump, Target: target} }

// NewCondJump builds a conditional jump consuming a CC of class cc.
func NewCondJump(target string, sense bool, cc Class) *Instr {
	return &Instr{Kind: KCondJump, Target: target, Sense: sense, CCClass: cc}
}

// IsCompare reports whether the instruction is a compare: an assignment
// to the zero register whose top operator is relational.  Only this
// form enqueues a condition code; a relational assignment to an
// ordinary register is a "set" instruction producing 0/1 with no CC
// side effect, so the compiler can use relational values freely.
func (i *Instr) IsCompare() bool {
	if i.Kind != KAssign || !i.Dst.IsZero() {
		return false
	}
	b, ok := i.Src.(Bin)
	return ok && b.Op.IsRelational()
}

// IsBranch reports whether the instruction transfers control.
func (i *Instr) IsBranch() bool {
	switch i.Kind {
	case KJump, KCondJump, KJumpNotDone, KRet, KHalt:
		return true
	}
	return false
}

// IsConditionalBranch reports whether the instruction may either branch
// or fall through.
func (i *Instr) IsConditionalBranch() bool {
	return i.Kind == KCondJump || i.Kind == KJumpNotDone
}

// Words is the number of 32-bit instruction words the RTL occupies on
// WM.  Materializing a 32-bit symbol address requires an llh/sll pair,
// so such assignments occupy two words; a 64-bit float immediate
// likewise costs two dispatch slots (the hardware would load it from a
// constant pool).
func (i *Instr) Words() int {
	if i.Kind == KAssign {
		switch i.Src.(type) {
		case Sym:
			return 2
		case FImm:
			if f := i.Src.(FImm); f.V != 0 {
				return 2
			}
		}
	}
	return 1
}

// HasFIFORead reports whether executing the instruction dequeues from an
// input FIFO (reads of r0/r1/f0/f1 inside Src, Addr, Base or Count).
func (i *Instr) HasFIFORead() bool {
	found := false
	i.EachUseExpr(func(e Expr) {
		ExprRegs(e, func(r Reg) {
			if r.IsFIFO() {
				found = true
			}
		})
	})
	return found
}

// HasFIFOWrite reports whether the instruction enqueues into an output
// FIFO (KAssign with a FIFO destination).
func (i *Instr) HasFIFOWrite() bool {
	return i.Kind == KAssign && i.Dst.IsFIFO()
}

// HasSideEffects reports whether the instruction has effects beyond
// writing Dst, so dead-code elimination must preserve it even when Dst
// is dead.
func (i *Instr) HasSideEffects() bool {
	switch i.Kind {
	case KAssign:
		return i.IsCompare() || i.Dst.IsFIFO() || i.HasFIFORead() || ExprHasMem(i.Src) || isMemDst(i)
	default:
		return true
	}
}

func isMemDst(i *Instr) bool { return false } // reserved: Mem destinations use KStore

// EachUseExpr calls fn for every expression operand read by the
// instruction.
func (i *Instr) EachUseExpr(fn func(Expr)) {
	if i.Src != nil {
		fn(i.Src)
	}
	if i.Addr != nil {
		fn(i.Addr)
	}
	if i.Base != nil {
		fn(i.Base)
	}
	if i.Count != nil {
		fn(i.Count)
	}
	if i.Stride != nil {
		fn(i.Stride)
	}
}

// MapExprs replaces every expression operand e with fn(e).
func (i *Instr) MapExprs(fn func(Expr) Expr) {
	if i.Src != nil {
		i.Src = fn(i.Src)
	}
	if i.Addr != nil {
		i.Addr = fn(i.Addr)
	}
	if i.Base != nil {
		i.Base = fn(i.Base)
	}
	if i.Count != nil {
		i.Count = fn(i.Count)
	}
	if i.Stride != nil {
		i.Stride = fn(i.Stride)
	}
}

// Uses appends to out every register read by the instruction and
// returns the result.  FIFO reads appear like ordinary register reads;
// callers that care about queue semantics should also consult
// HasFIFORead.  For KCall the uses are the ABI argument registers
// recorded in Args.
func (i *Instr) Uses(out []Reg) []Reg {
	i.EachUse(func(r Reg) { out = append(out, r) })
	return out
}

// EachUse calls fn for every register read by the instruction, in the
// order Uses lists them (a register read twice is visited twice),
// without allocating.
func (i *Instr) EachUse(fn func(Reg)) {
	if i.Kind == KCall {
		for _, r := range i.Args {
			fn(r)
		}
		return
	}
	i.EachUseExpr(func(e Expr) { ExprRegs(e, fn) })
}

// Def returns the register written by the instruction and whether one
// exists.  Writes to the zero register still report a def (the value is
// discarded, but the instruction formally targets the cell).
func (i *Instr) Def() (Reg, bool) {
	if i.Kind == KAssign {
		return i.Dst, true
	}
	return Reg{}, false
}

// Clone returns a deep-enough copy of the instruction (expressions are
// immutable by convention and shared).
func (i *Instr) Clone() *Instr {
	c := *i
	return &c
}

func (i *Instr) String() string {
	s := formatInstr(i)
	if i.Note != "" {
		s += " ; " + i.Note
	}
	return s
}

func formatInstr(i *Instr) string {
	switch i.Kind {
	case KLabel:
		return i.Name + ":"
	case KAssign:
		return fmt.Sprintf("%s := %s", i.Dst, i.Src)
	case KLoad:
		return fmt.Sprintf("l%d%s %s, %s", i.MemSize*8, i.MemClass.Letter(), i.FIFO, i.Addr)
	case KStore:
		return fmt.Sprintf("s%d%s %s, %s", i.MemSize*8, i.MemClass.Letter(), i.FIFO, i.Addr)
	case KJump:
		return "jump " + i.Target
	case KCondJump:
		sense := "T"
		if !i.Sense {
			sense = "F"
		}
		return fmt.Sprintf("jump%s%s %s", sense, i.CCClass.Letter(), i.Target)
	case KStreamIn:
		return fmt.Sprintf("sin%d%s %s, %s, %s, %s", i.MemSize*8, i.MemClass.Letter(), i.FIFO, i.Base, i.Count, i.Stride)
	case KStreamOut:
		return fmt.Sprintf("sout%d%s %s, %s, %s, %s", i.MemSize*8, i.MemClass.Letter(), i.FIFO, i.Base, i.Count, i.Stride)
	case KStreamStop:
		return fmt.Sprintf("sstop %s", i.FIFO)
	case KJumpNotDone:
		return fmt.Sprintf("jnd %s, %s", i.FIFO, i.Target)
	case KCall:
		return "call " + i.Name
	case KRet:
		return "ret"
	case KHalt:
		return "halt"
	case KPut:
		return fmt.Sprintf("put%c %s", i.Fmt, i.Src)
	}
	return "?"
}
