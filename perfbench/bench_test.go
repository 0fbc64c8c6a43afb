package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		decl
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestDeclarations pins BENCHMARK.json to what the runs report.
func TestDeclarations(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runs report %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.decl != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, runs report %+v", i, m.decl, endToEnd[i])
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runs report %d", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		if m != layers[i] {
			t.Errorf("per_layer[%d] = %+v, runs report %+v", i, m, layers[i])
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the runs do not know", w.Name)
		}
	}
}

// TestSteadiness runs the benchmark command twice on every workload with
// the same seed, as BENCHMARK.json configures a run, and checks each
// end-to-end metric of the two runs agree within the metric's bound.
func TestSteadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice at full length")
	}
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		var runs [2]result
		for i := range runs {
			cmd := exec.Command("bash", append(b.Command[1:], "--workload", w.Name, "--seed", "1",
				"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")...)
			cmd.Dir = ".."
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if !runs[i].Correct {
				t.Fatalf("%s: correctness checks failed:\n%s", w.Name, stdout)
			}
		}
		for _, m := range b.EndToEnd {
			first, second := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			change := (second - first) / first
			t.Logf("%s %s: %.6g then %.6g (%+.1f%%)", w.Name, m.Name, first, second, 100*change)
			if math.IsNaN(change) || math.Abs(change) > m.Bound {
				t.Errorf("%s %s: runs differ by %.1f%%, bound %.0f%%", w.Name, m.Name, 100*change, 100*m.Bound)
			}
		}
	}
}
