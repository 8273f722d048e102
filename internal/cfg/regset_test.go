package cfg

import (
	"math/rand"
	"sort"
	"testing"

	"wmstream/internal/rtl"
)

// oracleSet is the map-based register set RegSet replaced; the
// property test drives both with the same operations.
type oracleSet map[rtl.Reg]bool

func (o oracleSet) sorted() []rtl.Reg {
	var rs []rtl.Reg
	for r := range o {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return regBit(rs[i]) < regBit(rs[j]) })
	return rs
}

func randReg(rng *rand.Rand) rtl.Reg {
	c := rtl.Class(rng.Intn(rtl.NumClasses))
	if rng.Intn(2) == 0 {
		return rtl.Reg{Class: c, N: rng.Intn(rtl.NumArchRegs)}
	}
	return rtl.Reg{Class: c, N: rtl.VirtualBase + rng.Intn(200)}
}

func checkAgainstOracle(t *testing.T, step int, s RegSet, o oracleSet) {
	t.Helper()
	if s.Len() != len(o) {
		t.Fatalf("step %d: Len = %d, oracle %d", step, s.Len(), len(o))
	}
	var got []rtl.Reg
	s.Each(func(r rtl.Reg) { got = append(got, r) })
	want := o.sorted()
	if len(got) != len(want) {
		t.Fatalf("step %d: Each visited %v, want %v", step, got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("step %d: Each visited %v, want ascending %v", step, got, want)
		}
	}
}

// TestRegSetProperties drives random operation sequences through
// RegSet and a map oracle and requires identical contents after every
// step, Each in ascending order, and every method agreeing.
func TestRegSetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var s, t2 RegSet
		o, o2 := oracleSet{}, oracleSet{}
		for step := 0; step < 60; step++ {
			r := randReg(rng)
			switch rng.Intn(8) {
			case 0, 1:
				s.Add(r)
				o[r] = true
			case 2:
				s.Remove(r)
				delete(o, r)
			case 3:
				t2.Add(r)
				o2[r] = true
			case 4:
				grew := false
				for x := range o2 {
					if !o[x] {
						grew = true
					}
					o[x] = true
				}
				if got := s.AddAll(t2); got != grew {
					t.Fatalf("trial %d step %d: AddAll grew = %v, oracle %v", trial, step, got, grew)
				}
			case 5:
				for x := range o2 {
					delete(o, x)
				}
				s.RemoveAll(t2)
			case 6:
				c := s.Clone()
				c.Add(randReg(rng))
				c.Remove(r)
				checkAgainstOracle(t, step, s, o) // the clone must not alias
			case 7:
				same := len(o) == len(o2)
				for x := range o {
					same = same && o2[x]
				}
				if got := s.Equal(t2); got != same || t2.Equal(s) != same {
					t.Fatalf("trial %d step %d: Equal = %v, oracle %v (%v vs %v)", trial, step, got, same, s, t2)
				}
			}
			if s.Has(r) != o[r] {
				t.Fatalf("trial %d step %d: Has(%v) = %v, oracle %v", trial, step, r, s.Has(r), o[r])
			}
			checkAgainstOracle(t, step, s, o)
		}
		// Equal ignores trailing zero words: a set that once held a
		// high register equals one that never did.
		hi := rtl.Reg{Class: rtl.Float, N: rtl.VirtualBase + 500}
		a, b := s.Clone(), s.Clone()
		a.Add(hi)
		a.Remove(hi)
		if !a.Equal(b) || !b.Equal(a) {
			t.Fatalf("trial %d: Equal depends on vector width", trial)
		}
		if a.String() != b.String() {
			t.Fatalf("trial %d: String %q vs %q", trial, a.String(), b.String())
		}
	}
}

func TestRegSetZeroValue(t *testing.T) {
	var s RegSet
	if s.Has(rtl.R(2)) || s.Len() != 0 || !s.Equal(NewRegSet()) || s.String() != "{}" {
		t.Fatalf("zero RegSet is not empty: %v", s)
	}
	s.Remove(rtl.R(2)) // no-op, not a panic
	s.RemoveAll(RegSet{})
	s.Each(func(rtl.Reg) { t.Fatal("Each visited a member of the empty set") })
}
