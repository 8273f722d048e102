package rtl

import (
	"fmt"
	"strconv"
)

// Op enumerates the operators that may appear in RTL expressions.
type Op uint8

const (
	// Arithmetic and logical operators.
	Add Op = iota
	Sub
	Mul
	Div
	Rem
	Shl // shift left
	Shr // arithmetic shift right
	And
	Or
	Xor
	// Relational operators.  An assignment whose top operator is
	// relational is a compare: it produces 0/1 and enqueues a condition
	// code into the executing unit's CC FIFO.
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	// Unary operators (used with the Un expression).
	Neg
	Not  // bitwise complement
	Sqrt // FEU math operations (builtin, fixed latency)
	Sin
	Cos
	Exp
	Log
	Atan
	Fabs
)

var opNames = map[Op]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%",
	Shl: "<<", Shr: ">>", And: "&", Or: "|", Xor: "^",
	Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	Neg: "neg", Not: "not", Sqrt: "sqrt", Sin: "sin", Cos: "cos",
	Exp: "exp", Log: "log", Atan: "atan", Fabs: "fabs",
}

func (o Op) String() string { return opNames[o] }

// IsRelational reports whether the operator is a comparison.
func (o Op) IsRelational() bool { return o >= Eq && o <= Ge }

// IsCommutative reports whether a op b == b op a.
func (o Op) IsCommutative() bool {
	switch o {
	case Add, Mul, And, Or, Xor, Eq, Ne:
		return true
	}
	return false
}

// Negate returns the relational operator with the opposite truth value
// (Lt -> Ge, etc.).  It panics for non-relational operators.
func (o Op) Negate() Op {
	switch o {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	panic("rtl: Negate of non-relational op " + o.String())
}

// Swap returns the relational operator that holds when the operands are
// exchanged (Lt -> Gt, etc.).  It panics for non-relational operators.
func (o Op) Swap() Op {
	switch o {
	case Eq, Ne:
		return o
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	panic("rtl: Swap of non-relational op " + o.String())
}

// Expr is an RTL expression tree.  Concrete types: RegX, Imm, FImm, Sym,
// Bin, Un, Cvt, Mem.
type Expr interface {
	// Class is the register class of the value the expression produces.
	Class() Class
	String() string
	exprNode()
}

// RegX is a register reference.
type RegX struct{ Reg Reg }

// Imm is an integer immediate.
type Imm struct{ V int64 }

// FImm is a floating-point immediate.  Real WM code materializes
// non-zero float constants from memory; the legalizer rewrites FImm
// accordingly, but earlier phases may use it freely.
type FImm struct{ V float64 }

// Sym is the address of a global symbol plus a constant byte offset.
// On real WM a 32-bit address is materialized by an llh/sll pair; a Sym
// assignment therefore costs two instruction words (see Instr.Words).
type Sym struct {
	Name string
	Off  int64
}

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Expr
}

// Un is a unary operation (Neg, Not, or an FEU math builtin).
type Un struct {
	Op Op
	X  Expr
}

// Cvt converts between the integer and floating-point domains.  On WM,
// conversions synchronize the execution units and are executed by the
// IFU.
type Cvt struct {
	To Class
	X  Expr
}

// Mem is a memory operand: the value at a byte address.  Mem never
// appears in final WM code (loads/stores are separate access
// instructions feeding FIFOs); it is used by the naive expansion and by
// the scalar-machine dialect that models conventional processors
// (Table I, Figure 6).
type Mem struct {
	Addr Expr
	Size int // 1, 4 or 8 bytes
	Cl   Class
}

func (RegX) exprNode() {}
func (Imm) exprNode()  {}
func (FImm) exprNode() {}
func (Sym) exprNode()  {}
func (Bin) exprNode()  {}
func (Un) exprNode()   {}
func (Cvt) exprNode()  {}
func (Mem) exprNode()  {}

// Class implementations.
func (e RegX) Class() Class { return e.Reg.Class }
func (e Imm) Class() Class  { return Int }
func (e FImm) Class() Class { return Float }
func (e Sym) Class() Class  { return Int }
func (e Bin) Class() Class {
	if e.Op.IsRelational() {
		return Int
	}
	return e.L.Class()
}
func (e Un) Class() Class  { return e.X.Class() }
func (e Cvt) Class() Class { return e.To }
func (e Mem) Class() Class { return e.Cl }

func (e RegX) String() string { return e.Reg.String() }
func (e Imm) String() string  { return strconv.FormatInt(e.V, 10) }
func (e FImm) String() string { return strconv.FormatFloat(e.V, 'g', -1, 64) + "f" }
func (e Sym) String() string {
	if e.Off == 0 {
		return "_" + e.Name
	}
	if e.Off < 0 {
		return fmt.Sprintf("_%s-%d", e.Name, -e.Off)
	}
	return fmt.Sprintf("_%s+%d", e.Name, e.Off)
}
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}
func (e Un) String() string {
	return fmt.Sprintf("%s(%s)", e.Op, e.X)
}
func (e Cvt) String() string {
	return fmt.Sprintf("cvt%s(%s)", e.To.Letter(), e.X)
}
func (e Mem) String() string {
	return fmt.Sprintf("M%d%s[%s]", e.Size, e.Cl.Letter(), e.Addr)
}

// Convenience constructors.

// RX wraps a register in an expression node.
func RX(r Reg) Expr { return RegX{r} }

// I returns an integer immediate expression.
func I(v int64) Expr { return Imm{v} }

// B builds a binary expression.
func B(op Op, l, r Expr) Expr { return Bin{op, l, r} }

// EqualExpr reports whether two expression trees are structurally equal.
func EqualExpr(a, b Expr) bool {
	switch x := a.(type) {
	case RegX:
		y, ok := b.(RegX)
		return ok && x.Reg == y.Reg
	case Imm:
		y, ok := b.(Imm)
		return ok && x.V == y.V
	case FImm:
		y, ok := b.(FImm)
		return ok && x.V == y.V
	case Sym:
		y, ok := b.(Sym)
		return ok && x == y
	case Bin:
		y, ok := b.(Bin)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case Un:
		y, ok := b.(Un)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case Cvt:
		y, ok := b.(Cvt)
		return ok && x.To == y.To && EqualExpr(x.X, y.X)
	case Mem:
		y, ok := b.(Mem)
		return ok && x.Size == y.Size && x.Cl == y.Cl && EqualExpr(x.Addr, y.Addr)
	}
	return false
}

// WalkExpr calls fn for every node of the expression tree in prefix
// order.
func WalkExpr(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case Bin:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case Un:
		WalkExpr(x.X, fn)
	case Cvt:
		WalkExpr(x.X, fn)
	case Mem:
		WalkExpr(x.Addr, fn)
	}
}

// ExprRegs calls fn for every register referenced by the expression,
// in WalkExpr's pre-order.
func ExprRegs(e Expr, fn func(Reg)) {
	switch x := e.(type) {
	case RegX:
		fn(x.Reg)
	case Bin:
		ExprRegs(x.L, fn)
		ExprRegs(x.R, fn)
	case Un:
		ExprRegs(x.X, fn)
	case Cvt:
		ExprRegs(x.X, fn)
	case Mem:
		ExprRegs(x.Addr, fn)
	}
}

// ExprUsesReg reports whether the expression references the register.
func ExprUsesReg(e Expr, r Reg) bool {
	found := false
	ExprRegs(e, func(u Reg) {
		if u == r {
			found = true
		}
	})
	return found
}

// ExprHasMem reports whether the expression contains a memory operand.
func ExprHasMem(e Expr) bool {
	found := false
	WalkExpr(e, func(n Expr) {
		if _, ok := n.(Mem); ok {
			found = true
		}
	})
	return found
}

// SubstReg returns a copy of e with every reference to register from
// replaced by the expression to.
func SubstReg(e Expr, from Reg, to Expr) Expr {
	switch x := e.(type) {
	case RegX:
		if x.Reg == from {
			return to
		}
		return x
	case Bin:
		return Bin{x.Op, SubstReg(x.L, from, to), SubstReg(x.R, from, to)}
	case Un:
		return Un{x.Op, SubstReg(x.X, from, to)}
	case Cvt:
		return Cvt{x.To, SubstReg(x.X, from, to)}
	case Mem:
		return Mem{SubstReg(x.Addr, from, to), x.Size, x.Cl}
	default:
		return e
	}
}

// RenameRegs returns a copy of e with every register replaced by
// fn(reg).
func RenameRegs(e Expr, fn func(Reg) Reg) Expr {
	switch x := e.(type) {
	case RegX:
		return RegX{fn(x.Reg)}
	case Bin:
		return Bin{x.Op, RenameRegs(x.L, fn), RenameRegs(x.R, fn)}
	case Un:
		return Un{x.Op, RenameRegs(x.X, fn)}
	case Cvt:
		return Cvt{x.To, RenameRegs(x.X, fn)}
	case Mem:
		return Mem{RenameRegs(x.Addr, fn), x.Size, x.Cl}
	default:
		return e
	}
}

// RenameRegsExpr returns a copy of e with every register reference
// replaced by the expression fn(reg).
func RenameRegsExpr(e Expr, fn func(Reg) Expr) Expr {
	switch x := e.(type) {
	case RegX:
		return fn(x.Reg)
	case Bin:
		return Bin{x.Op, RenameRegsExpr(x.L, fn), RenameRegsExpr(x.R, fn)}
	case Un:
		return Un{x.Op, RenameRegsExpr(x.X, fn)}
	case Cvt:
		return Cvt{x.To, RenameRegsExpr(x.X, fn)}
	case Mem:
		return Mem{RenameRegsExpr(x.Addr, fn), x.Size, x.Cl}
	default:
		return e
	}
}

// ExprSize returns the number of operator nodes in the expression; the
// WM dual-operation format admits at most two.
func ExprSize(e Expr) int {
	n := 0
	WalkExpr(e, func(x Expr) {
		switch x.(type) {
		case Bin, Un, Cvt:
			n++
		}
	})
	return n
}
