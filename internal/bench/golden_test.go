package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/listings.sha256 from the current compiler")

const listingGolden = "testdata/listings.sha256"

// TestListingGolden pins the SHA-256 of the debug listing of every
// suite program and Livermore 5 at O0–O3.  Compiler changes that are
// meant to be pure speedups (analysis data structures, allocation
// work) must leave every byte of generated code alone; a deliberate
// codegen change regenerates the file with -update-golden and says
// why in its commit.
func TestListingGolden(t *testing.T) {
	lv, _ := ByName("livermore5")
	var b strings.Builder
	for _, p := range append(Programs(), lv) {
		for lvl := 0; lvl <= 3; lvl++ {
			rp, err := Compile(p, lvl)
			if err != nil {
				t.Fatalf("%s O%d: %v", p.Name, lvl, err)
			}
			fmt.Fprintf(&b, "%s O%d %x\n", p.Name, lvl, sha256.Sum256([]byte(rp.StringDebug())))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(listingGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(listingGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for n := range gl {
			if n >= len(wl) || gl[n] != wl[n] {
				t.Errorf("listing hash changed: got %q", gl[n])
			}
		}
	}
}
