package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"gallium"
	"gallium/internal/analysis"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/p4"
	"gallium/internal/partition"
	"gallium/internal/servergen"
)

// golden is one middlebox's expected P4 and server programs.
type golden struct{ p4, server string }

// loadGoldens reads testdata/golden/<mb>.{p4,server}; they are never
// written.
func loadGoldens(specs []middleboxes.Spec) (map[string]golden, error) {
	out := map[string]golden{}
	for _, s := range specs {
		p, err := os.ReadFile(filepath.Join("testdata", "golden", s.Name+".p4"))
		if err != nil {
			return nil, err
		}
		srv, err := os.ReadFile(filepath.Join("testdata", "golden", s.Name+".server"))
		if err != nil {
			return nil, err
		}
		out[s.Name] = golden{string(p), string(srv)}
	}
	return out, nil
}

// compilePass compiles every spec once through the facade with Verify,
// appending each program's compile time to lat. It returns the pass time,
// the artifacts, and the programs whose output differs from its golden
// files (or failed to compile).
//
// Compiling is single-threaded, so its time is the compiling thread's CPU
// time: on a shared host the wall clock also counts the time the
// hypervisor gave the CPU to other tenants, which swamped differences of
// the compiler's own. Collector work on other threads is not counted;
// compile.allocs_per_pass and compile.bytes_per_pass count what it
// collects.
func compilePass(specs []middleboxes.Spec, goldens map[string]golden, lat *reservoir) (int64, []*gallium.Artifacts, []string) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var bad []string
	var total int64
	arts := make([]*gallium.Artifacts, 0, len(specs))
	for _, s := range specs {
		t0 := threadCPUNs()
		art, err := gallium.Compile(s.Source, gallium.Options{Verify: true})
		el := threadCPUNs() - t0
		total += el
		if lat != nil {
			lat.add(float64(el))
		}
		if err != nil || art.P4.Source != goldens[s.Name].p4 || art.Server.Source != goldens[s.Name].server {
			bad = append(bad, s.Name)
		}
		arts = append(arts, art)
	}
	return total, arts, bad
}

// threadCPUNs is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPUNs() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// runCompileWorkload repeats compile passes over the nine extended
// middleboxes, in measuring parts like the packet workloads.
func runCompileWorkload(cfg config, out *outcome) error {
	specs := middleboxes.Extended()
	switch {
	case cfg.trace:
		return traceCompileWorkload(cfg, specs, out)
	case cfg.part > 0:
		return measureCompiles(cfg, specs, out)
	}
	return measureParts(cfg, out)
}

// measureCompiles is one measuring part of the compile workload: windows
// of about half a second of passes, each window after one set-up (read
// the golden files, run one checked pass).
func measureCompiles(cfg config, specs []middleboxes.Spec, out *outcome) error {
	windows := windowCount(cfg)
	window := int64(cfg.seconds * 1e9 / float64(windows))
	lat := newReservoir(1 << 16)
	var arts []*gallium.Artifacts
	for w := 0; w < windows; w++ {
		steal := stealTicks()
		runtime.GC()
		t0 := time.Now()
		goldens, err := loadGoldens(specs)
		if err != nil {
			return err
		}
		_, _, bad := compilePass(specs, goldens, nil)
		out.sample("setup_s", float64(since(t0))/1e9)
		out.check(len(bad) == 0, "set-up pass: output differs from golden files for %v", bad)
		lat.reset()
		var wNs, wPasses int64
		var passes []float64
		for start := time.Now(); since(start) < window; {
			var el int64
			el, arts, bad = compilePass(specs, goldens, lat)
			wNs += el
			wPasses++
			passes = append(passes, float64(el))
			if len(bad) > 0 && out.Failed == 0 {
				out.check(false, "window %d: output differs from golden files for %v", w, bad)
			}
			out.Failed += int64(len(bad))
		}
		n := wPasses * int64(len(specs))
		out.Attempted += n
		out.sample("ops_per_s", float64(n)/(float64(wNs)/1e9))
		out.sample("lat_p50_us", quantile(lat.xs, 0.5)/1e3)
		out.sample("lat_p90_us", quantile(lat.xs, 0.9)/1e3)
		out.sample("compile_ms", median(passes)/1e6)
		out.sample("steal_ticks", stealTicks()-steal)
	}
	out.check(out.Failed == 0, "%d of %d compiles differ from their golden files", out.Failed, out.Attempted)
	// The live heap holds the last pass's compiled artifacts.
	out.sample("heap_live_mib", liveHeapMiB())
	runtime.KeepAlive(arts)
	return nil
}

// compiler replicates gallium.Compile with Verify, with a span around
// each layer call when tr is set.
type compiler struct {
	names                                   *tracer
	tr                                      *tracer
	root, lang, part, lint, verify, p4, srv uint16
}

func newCompiler(names *tracer) *compiler {
	return &compiler{
		names:  names,
		root:   names.name("gallium.compile"),
		lang:   names.name("lang.compile"),
		part:   names.name("partition.partition"),
		lint:   names.name("analysis.lint"),
		verify: names.name("analysis.verify"),
		p4:     names.name("p4.generate"),
		srv:    names.name("servergen.generate"),
	}
}

// compile returns the generated P4 and server sources.
func (c *compiler) compile(src string, id int64) (string, string, error) {
	root := c.tr.begin(c.root, -1, id)
	defer c.tr.end(root)
	sp := c.tr.begin(c.lang, root, id)
	prog, err := lang.Compile(src)
	c.tr.end(sp)
	if err != nil {
		return "", "", err
	}
	sp = c.tr.begin(c.part, root, id)
	res, err := partition.Partition(prog, gallium.Options{Verify: true}.Constraints())
	c.tr.end(sp)
	if err != nil {
		return "", "", err
	}
	sp = c.tr.begin(c.lint, root, id)
	diags := analysis.Lint(prog)
	c.tr.end(sp)
	sp = c.tr.begin(c.verify, root, id)
	diags = append(diags, analysis.Verify(res)...)
	c.tr.end(sp)
	diags.Sort()
	if diags.HasErrors() {
		return "", "", fmt.Errorf("%s: verification failed", prog.Name)
	}
	sp = c.tr.begin(c.p4, root, id)
	p4prog, err := p4.Generate(res)
	c.tr.end(sp)
	if err != nil {
		return "", "", err
	}
	sp = c.tr.begin(c.srv, root, id)
	srv := servergen.Generate(res)
	c.tr.end(sp)
	return p4prog.Source, srv.Source, nil
}

// compileTrace is what traceCompile measured.
type compileTrace struct {
	names *tracer
	// compiles counts the programs compiled in traced and untraced passes.
	compiles    int64
	overheadPct float64
}

// traceCompile measures the compile layers over one pass of specs:
// alternating traced and untraced passes, at least minPasses of each and
// for at least budget, then the allocations of facade passes. It sets the
// compile metrics; every pass's output must equal the golden files.
func traceCompile(specs []middleboxes.Spec, out *outcome, budget int64, minPasses int) (*compileTrace, error) {
	goldens, err := loadGoldens(specs)
	if err != nil {
		return nil, err
	}
	c := newCompiler(newTracer(keepSpans))
	var tracedNs, untracedNs, traced, untraced, bad int64
	for i := int64(0); traced < int64(minPasses) || tracedNs+untracedNs < budget; i++ {
		on := i%2 == 1
		if on {
			c.tr = c.names
		}
		t0 := time.Now()
		for j, s := range specs {
			p, srv, err := c.compile(s.Source, i*int64(len(specs))+int64(j))
			if err != nil || p != goldens[s.Name].p4 || srv != goldens[s.Name].server {
				bad++
			}
		}
		el := since(t0)
		c.tr = nil
		if on {
			c.names.fold()
			tracedNs += el
			traced++
		} else {
			untracedNs += el
			untraced++
		}
	}
	out.check(bad == 0, "%d replicated compiles differ from their golden files", bad)
	t := c.names
	perPass := func(name string) float64 { return ratio(float64(t.selfNs(name)), float64(traced)) / 1e6 }
	out.set("lang.compile_ms", perPass("lang.compile"))
	out.set("partition.ms", perPass("partition.partition"))
	out.set("analysis.lint_ms", perPass("analysis.lint"))
	out.set("analysis.verify_ms", perPass("analysis.verify"))
	out.set("p4.generate_ms", perPass("p4.generate"))
	out.set("servergen.generate_ms", perPass("servergen.generate"))
	tracedPass := float64(tracedNs) / float64(traced)
	untracedPass := float64(untracedNs) / float64(untraced)
	fmt.Printf("compile ledger (%d traced passes): %.3f ms per pass traced, %.3f untraced, %.3f outside the layers\n",
		traced, tracedPass/1e6, untracedPass/1e6, perPass("gallium.compile"))

	var allocs, bytes []float64
	for i := 0; i < 9; i++ {
		u0, err := snapshot()
		if err != nil {
			return nil, err
		}
		_, arts, _ := compilePass(specs, goldens, nil)
		u1, err := snapshot()
		if err != nil {
			return nil, err
		}
		runtime.KeepAlive(arts)
		allocs = append(allocs, float64(u1.mallocs-u0.mallocs))
		bytes = append(bytes, float64(u1.allocBytes-u0.allocBytes))
	}
	out.set("compile.allocs_per_pass", median(allocs))
	out.set("compile.bytes_per_pass", median(bytes))
	return &compileTrace{
		names:       t,
		compiles:    (traced + untraced) * int64(len(specs)),
		overheadPct: 100 * (tracedPass/untracedPass - 1),
	}, nil
}

// traceCompileWorkload is the compile workload's traced run. It has no
// datapath, so every datapath layer metric reads zero work.
func traceCompileWorkload(cfg config, specs []middleboxes.Spec, out *outcome) error {
	u0, err := snapshot()
	if err != nil {
		return err
	}
	ct, err := traceCompile(specs, out, int64(cfg.seconds*1e9), traceCompilePasses)
	if err != nil {
		return err
	}
	u1, err := snapshot()
	if err != nil {
		return err
	}
	out.Attempted = ct.compiles
	out.set("trace.overhead_pct", ct.overheadPct)
	out.set("runtime.gc_cycles", float64(u1.numGC-u0.numGC))
	out.set("runtime.gc_pause_ms", float64(u1.pauseNs-u0.pauseNs)/1e6)
	for _, d := range perLayer() {
		if _, ok := out.values[d.Name]; !ok {
			out.set(d.Name, 0)
		}
	}
	path, err := ct.names.write(cfg.spansDir, cfg)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d kept of the first traced pass in %s\n", len(ct.names.kept), path)
	return nil
}
