package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The nine Table II programs, copied into the benchmark so that it
// binds to no test package of the repository, and their outputs pinned
// here rather than taken from the compiler under test.
//
//go:embed programs/*.mc programs/expected.json
var programFS embed.FS

// program is one benchmark source with its expected output.
type program struct {
	Name   string
	Source string
	Expect string
}

// tableII returns the nine Table II programs in name order.
func tableII() ([]program, error) {
	raw, err := programFS.ReadFile("programs/expected.json")
	if err != nil {
		return nil, err
	}
	var expect map[string]string
	if err := json.Unmarshal(raw, &expect); err != nil {
		return nil, fmt.Errorf("programs/expected.json: %w", err)
	}
	names := make([]string, 0, len(expect))
	for n := range expect {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]program, 0, len(names))
	for _, n := range names {
		src, err := programFS.ReadFile("programs/" + n + ".mc")
		if err != nil {
			return nil, err
		}
		out = append(out, program{Name: n, Source: string(src), Expect: expect[n]})
	}
	if len(out) != 9 {
		return nil, fmt.Errorf("expected 9 Table II programs, found %d", len(out))
	}
	return out, nil
}

// shortRuns names the Table II programs whose simulations are short
// enough for a synchronous serve-cold /run.
var shortRuns = map[string]bool{
	"banner": true, "cal": true, "dhrystone": true,
	"dot-product": true, "iir": true, "whetstone": true,
}

// livermore5 is the paper's running example, the 5th Livermore loop
// (tri-diagonal elimination below the diagonal), over n elements.
func livermore5(n int) program {
	src := strings.ReplaceAll(`
double x[N], y[N], z[N];
int n = N;

void setup(void) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = (i % 9) * 0.25 + 1.0;
        y[i] = (i % 7) * 0.5 + 2.0;
        z[i] = (i % 5) * 0.125 + 0.5;
    }
}

void kernel(void) {
    int i;
    for (i = 2; i < n; i++)
        x[i] = z[i] * (y[i] - x[i-1]);
}

int main(void) {
    double sum;
    int i;
    setup();
    kernel();
    sum = 0.0;
    for (i = 0; i < n; i++)
        sum = sum + x[i];
    putd(sum);
    return 0;
}
`, "N", fmt.Sprint(n))
	return program{Name: "livermore5", Source: src, Expect: livermore5Sum(n)}
}

// livermore5Sum computes the Livermore 5 program's output in plain Go
// from the same initialisation, formatted as the simulator's putd
// formats a double.
func livermore5Sum(n int) string {
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i%9)*0.25 + 1.0
		y[i] = float64(i%7)*0.5 + 2.0
		z[i] = float64(i%5)*0.125 + 0.5
	}
	for i := 2; i < n; i++ {
		x[i] = z[i] * (y[i] - x[i-1])
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum = sum + x[i]
	}
	return fmt.Sprintf("%g", sum)
}

// salted appends an initialised global the program never reads.  The
// output stays the base program's, but the linked image (its data
// segment) is new, so content-addressed caches keyed on the source and
// the simulator's translation cache and machine pool keyed on the
// image all miss.  A trailing comment would change only the source.
func salted(src string, salt int64) string {
	return fmt.Sprintf("%s\nint bench_salt = %d;\n", src, salt)
}
