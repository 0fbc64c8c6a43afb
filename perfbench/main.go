// Command perfbench is the repository benchmark: it runs one named
// workload through the public gallium facade, prints every end-to-end
// metric by name and unit, checks the outputs are correct, and ends with
// one JSON result line. With -trace 1 it instead drives a single-lane
// replica of the engine datapath with spans around each layer's calls and
// prints the per-layer ledger. See README.md for the metrics and the
// reasons behind each workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// part > 0 makes the process one measuring part of an untraced run
	// (see measureParts).
	part int
}

// outcome is what a workload run hands back: the metric values (keyed by
// name, units come from the declarations in metrics.go), the operation
// counts, and every failed correctness check. A measuring part reports
// samples instead of values: every per-window value of each end-to-end
// metric, which measureParts pools across parts.
type outcome struct {
	values    map[string]float64
	Samples   map[string][]float64 `json:"samples"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Problems  []string             `json:"problems"`
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = map[string]float64{}
	}
	o.values[name] = v
}

func (o *outcome) sample(name string, v float64) {
	if o.Samples == nil {
		o.Samples = map[string][]float64{}
	}
	o.Samples[name] = append(o.Samples[name], v)
}

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config, *outcome) error{
	"steady":  runPacketWorkload,
	"churn":   runPacketWorkload,
	"chain":   runPacketWorkload,
	"compile": runCompileWorkload,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: steady, churn, chain or compile")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.StringVar(&cfg.spansDir, "spans", ".bench_build/spans", "directory traced runs write their spans to")
	flag.IntVar(&cfg.part, "part", 0, "internal: measure as part n of an untraced run and print its samples")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want steady, churn, chain or compile)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if _, err := os.Stat("testdata/golden"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	out := &outcome{}
	if cfg.part > 0 {
		if err := fn(cfg, out); err != nil {
			return err
		}
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	env, err := json.Marshal(envStamp(cfg))
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)
	if err := fn(cfg, out); err != nil {
		return err
	}
	res, err := finish(cfg, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness check(s) failed", len(out.Problems))
	}
	return nil
}

// envStamp records what a run's numbers depend on besides the code.
func envStamp(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// finish turns an outcome into the result line: every declared metric of
// the run's kind must be present and finite.
func finish(cfg config, out *outcome) (*result, error) {
	decl := endToEnd
	if cfg.trace {
		decl = perLayer()
	}
	res := &result{
		Correct:   len(out.Problems) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range decl {
		v, ok := out.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("metric %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, p := range out.Problems {
		fmt.Printf("FAIL %s\n", p)
	}
	return res, nil
}

// since returns the nanoseconds elapsed since t on the monotonic clock.
func since(t time.Time) int64 { return int64(time.Since(t)) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (sorting xs in place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
