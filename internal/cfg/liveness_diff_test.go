package cfg_test

import (
	"testing"

	"wmstream/internal/bench"
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// oracleSet is a map-based register set.
type oracleSet map[rtl.Reg]struct{}

func (s oracleSet) equal(t oracleSet) bool {
	if len(s) != len(t) {
		return false
	}
	for r := range s {
		if _, ok := t[r]; !ok {
			return false
		}
	}
	return true
}

// oracleLiveness is the map-based backward data-flow algorithm the
// bit-vector Liveness replaced, kept as the differential oracle.
func oracleLiveness(g *cfg.Graph) (in, out []oracleSet) {
	n := len(g.Blocks)
	use, def := make([]oracleSet, n), make([]oracleSet, n)
	in, out = make([]oracleSet, n), make([]oracleSet, n)
	for _, b := range g.Blocks {
		u, d := oracleSet{}, oracleSet{}
		for _, i := range b.Instrs(g.F) {
			cfg.InstrUses(i, func(r rtl.Reg) {
				if _, ok := d[r]; !ok {
					u[r] = struct{}{}
				}
			})
			cfg.InstrDefs(i, func(r rtl.Reg) { d[r] = struct{}{} })
		}
		use[b.Index], def[b.Index] = u, d
		in[b.Index], out[b.Index] = oracleSet{}, oracleSet{}
	}
	for changed := true; changed; {
		changed = false
		order := g.ReversePostorder()
		for k := len(order) - 1; k >= 0; k-- {
			b := order[k]
			o := oracleSet{}
			for _, s := range b.Succs {
				for r := range in[s.Index] {
					o[r] = struct{}{}
				}
			}
			i := oracleSet{}
			for r := range o {
				if _, killed := def[b.Index][r]; !killed {
					i[r] = struct{}{}
				}
			}
			for r := range use[b.Index] {
				i[r] = struct{}{}
			}
			if !i.equal(in[b.Index]) || !o.equal(out[b.Index]) {
				in[b.Index], out[b.Index] = i, o
				changed = true
			}
		}
	}
	return in, out
}

func toOracle(s cfg.RegSet) oracleSet {
	o := oracleSet{}
	s.Each(func(r rtl.Reg) { o[r] = struct{}{} })
	return o
}

// TestLivenessMatchesOracle requires the bit-vector solution to equal
// the map-based one on every block of every function of the suite and
// Livermore 5, both as expanded (virtual registers) and after the
// optimizer at O0–O3 (physical registers).
func TestLivenessMatchesOracle(t *testing.T) {
	lv, _ := bench.ByName("livermore5")
	for _, p := range append(bench.Programs(), lv) {
		for lvl := -1; lvl <= 3; lvl++ {
			var rp *rtl.Program
			var err error
			if lvl < 0 {
				rp, err = bench.CompileNone(p)
			} else {
				rp, err = bench.Compile(p, lvl)
			}
			if err != nil {
				t.Fatalf("%s O%d: %v", p.Name, lvl, err)
			}
			for _, f := range rp.Funcs {
				g, err := cfg.Build(f)
				if err != nil {
					t.Fatalf("%s O%d %s: %v", p.Name, lvl, f.Name, err)
				}
				g.Liveness()
				in, out := oracleLiveness(g)
				for _, b := range g.Blocks {
					if !toOracle(b.LiveIn).equal(in[b.Index]) {
						t.Errorf("%s O%d %s B%d: LiveIn %v, oracle %v", p.Name, lvl, f.Name, b.Index, b.LiveIn, in[b.Index])
					}
					if !toOracle(b.LiveOut).equal(out[b.Index]) {
						t.Errorf("%s O%d %s B%d: LiveOut %v, oracle %v", p.Name, lvl, f.Name, b.Index, b.LiveOut, out[b.Index])
					}
				}
			}
		}
	}
}
