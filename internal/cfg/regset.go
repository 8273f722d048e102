package cfg

import (
	"math/bits"
	"sort"
	"strings"

	"wmstream/internal/rtl"
)

// RegSet is a set of registers, stored as a dense bit vector with one
// bit per register: register N of class C is bit 2*N+C.  Virtual
// registers are numbered densely from rtl.VirtualBase, so a function's
// sets span a few words and the data-flow transfer functions run a
// word at a time.  The zero value is an empty set ready for use; Add
// grows the vector as needed.  Sets are values holding a slice: copy
// with Clone, not assignment, before mutating one of two holders.
type RegSet struct {
	words []uint64
}

// NewRegSet returns an empty set.
func NewRegSet() RegSet { return RegSet{} }

func regBit(r rtl.Reg) int { return 2*r.N + int(r.Class) }

func bitReg(b int) rtl.Reg { return rtl.Reg{Class: rtl.Class(b & 1), N: b >> 1} }

// grow extends the vector to at least n words.
func (s *RegSet) grow(n int) {
	if n > len(s.words) {
		s.words = append(s.words, make([]uint64, n-len(s.words))...)
	}
}

// Add inserts r.
func (s *RegSet) Add(r rtl.Reg) {
	b := regBit(r)
	s.grow(b>>6 + 1)
	s.words[b>>6] |= 1 << (b & 63)
}

// Remove deletes r.
func (s *RegSet) Remove(r rtl.Reg) {
	if b := regBit(r); b>>6 < len(s.words) {
		s.words[b>>6] &^= 1 << (b & 63)
	}
}

// Has reports membership.
func (s RegSet) Has(r rtl.Reg) bool {
	b := regBit(r)
	return b>>6 < len(s.words) && s.words[b>>6]&(1<<(b&63)) != 0
}

// AddAll inserts every element of t and reports whether s grew.
func (s *RegSet) AddAll(t RegSet) bool {
	s.grow(len(t.words))
	grew := false
	for k, w := range t.words {
		if w&^s.words[k] != 0 {
			s.words[k] |= w
			grew = true
		}
	}
	return grew
}

// RemoveAll deletes every element of t.
func (s *RegSet) RemoveAll(t RegSet) {
	for k := range s.words {
		if k == len(t.words) {
			return
		}
		s.words[k] &^= t.words[k]
	}
}

// Clone returns a copy.
func (s RegSet) Clone() RegSet {
	return RegSet{append([]uint64(nil), s.words...)}
}

// Equal reports set equality.
func (s RegSet) Equal(t RegSet) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for k, w := range a {
		if k < len(b) {
			if w != b[k] {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of registers in the set.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn for every register in the set in ascending bit order
// (by register number, integer before float at the same number).  fn
// must not modify the set.
func (s RegSet) Each(fn func(rtl.Reg)) {
	for k, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			fn(bitReg(k<<6 + b))
		}
	}
}

// String lists the registers sorted by name, e.g. "{f3 r2}".
func (s RegSet) String() string {
	names := make([]string, 0, s.Len())
	s.Each(func(r rtl.Reg) { names = append(names, r.String()) })
	sort.Strings(names)
	return "{" + strings.Join(names, " ") + "}"
}
