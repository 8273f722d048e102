package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// namedEndToEnd are the end-to-end metric names later changes refer
// to; they must stay exactly these.
var namedEndToEnd = []string{
	"setup_s", "wall_s", "sim_minstr_per_s", "sim_cycles_geomean", "rps",
	"p50_ms", "p99_ms", "p90_ms", "jobs_per_s", "max_rss_mb",
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
		}
		for i := range min(len(declared), len(defs)) {
			if declared[i].Name != defs[i].name || declared[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, declared[i].Name, declared[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
	names := map[string]bool{}
	for _, d := range endToEnd {
		names[d.name] = true
	}
	for _, n := range namedEndToEnd {
		if !names[n] {
			t.Errorf("end-to-end metric %s is not reported", n)
		}
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, against
// a freshly built wmserved, and checks that the result line is correct
// and carries every declared metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wmserved and runs every workload")
	}
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	wmserved := filepath.Join(dir, "wmserved")
	for _, args := range [][]string{{"-o", bin, "."}, {"-o", wmserved, "wmstream/cmd/wmserved"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "-workload", w.Name, "-seed", "3", "-seconds", "0.5",
					"-trace", trace, "-wmserved", wmserved, "-work", t.TempDir())
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				var last string
				for sc := bufio.NewScanner(&stdout); sc.Scan(); {
					last = sc.Text()
				}
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line %q: %v", last, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %v (unit %q), declared unit %q", m.Name, ok, got.Unit, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}
