package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"gallium"
	"gallium/internal/ctlplane"
	"gallium/internal/middleboxes"
)

// runPacketWorkload runs steady, churn or chain: the output check first,
// then either the measuring parts of the end-to-end run or the traced
// ledger. A measuring part only measures.
func runPacketWorkload(cfg config, out *outcome) error {
	tr, err := newTraffic(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	if cfg.part > 0 {
		return measurePackets(cfg, tr, out)
	}
	arts, err := compileSet(tr.mbs)
	if err != nil {
		return err
	}
	if err := checkEquivalence(tr, arts, out); err != nil {
		return err
	}
	if cfg.trace {
		return tracePackets(cfg, tr, arts, out)
	}
	return measureParts(cfg, out)
}

// measurePackets is one measuring part. Its timed phase is cut into
// windows of about half a second, each on a freshly set-up session and
// each preceded by one timed compile pass, and it reports every window's
// values. Medians over windows (and over parts) mean a passing
// disturbance on the host moves a window, not the result.
func measurePackets(cfg config, tr *traffic, out *outcome) error {
	specs := middleboxes.Extended()
	goldens, err := loadGoldens(specs)
	if err != nil {
		return err
	}
	d := newDatapath(tr)
	stopWatch := d.watch()
	defer stopWatch()
	defer func() {
		if d.sess != nil {
			d.sess.Close()
		}
	}()
	windows := windowCount(cfg)
	window := int64(cfg.seconds * 1e9 / float64(windows))
	var delivered, slow, reconfigs int64
	for w := 0; w < windows; w++ {
		steal := stealTicks()
		el, _, bad := compilePass(specs, goldens, nil)
		out.check(len(bad) == 0, "compile pass: output differs from golden files for %v", bad)
		out.sample("compile_ms", float64(el)/1e6)
		el, err := d.setUp()
		if err != nil {
			return err
		}
		out.sample("setup_s", float64(el)/1e9)
		if err := d.warmUp(); err != nil {
			return err
		}
		var rc *reconfigurer
		if tr.name == "chain" {
			rc = d.startReconfigurer(nil)
		}
		before, err := d.sess.Stats()
		if err != nil {
			return err
		}
		d.lat.reset()
		var wNs, wPkts int64
		for wNs < window {
			d.next()
			el, err := d.send()
			if err != nil {
				return err
			}
			wNs += el
			wPkts += int64(len(d.ring.pkts))
		}
		if rc != nil {
			rc.stop(d)
			if rc.err != nil {
				return fmt.Errorf("reconfigure: %w", rc.err)
			}
			reconfigs += int64(len(rc.wall))
		}
		after, err := d.sess.Stats()
		if err != nil {
			return err
		}
		checkConservation(out, after)
		injected := int64(after.Stats.Injected - before.Stats.Injected)
		out.check(injected == wPkts, "window %d: %d packets sent but %d injected", w, wPkts, injected)
		delivered += int64(after.Stats.Delivered - before.Stats.Delivered)
		slow += int64(after.Stats.SlowPath - before.Stats.SlowPath)
		out.Attempted += wPkts
		out.sample("ops_per_s", float64(wPkts)/(float64(wNs)/1e9))
		out.sample("lat_p50_us", quantile(d.lat.xs, 0.5)/1e3)
		out.sample("lat_p90_us", quantile(d.lat.xs, 0.9)/1e3)
		out.sample("steal_ticks", stealTicks()-steal)
	}
	out.sample("heap_live_mib", liveHeapMiB())
	rep, err := d.sess.Close()
	if err != nil {
		return err
	}
	checkConservation(out, rep)
	out.Failed = out.Attempted - delivered
	switch tr.name {
	case "steady":
		out.check(slow == 0, "steady: %d packets took the slow path in the timed phase", slow)
	case "chain":
		out.check(out.Failed == 0, "chain: %d of %d packets not delivered", out.Failed, out.Attempted)
		out.check(reconfigs > 0, "chain: no reconfiguration ran")
	}
	return nil
}

// windowCount cuts a part's timed phase into windows of about half a
// second.
func windowCount(cfg config) int {
	return max(1, int(math.Round(2*cfg.seconds)))
}

// parts is how many processes an untraced run measures in, one after
// the other. A process keeps its own speed for its whole life (where the
// runtime's threads and the heap landed); the median over several
// processes does not depend on one of them.
const parts = 8

// measureParts runs the untraced measurement as `parts` child processes,
// each for an equal share of the run's seconds, pools their per-window
// samples and reports each end-to-end metric as the median of its pool.
// Windows in which the hypervisor took more CPU time from the machine
// than in the median window are left out of the per-window metrics: they
// measured the host's other tenants as much as the program.
func measureParts(cfg config, out *outcome) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 1; i <= parts; i++ {
		cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds/parts, 'g', -1, 64), "-part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		// A part must not outlive the run that started it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var part outcome
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &part); err != nil {
			return fmt.Errorf("part %d: result line: %w", i, err)
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("part %d: %s\n", i, l)
		}
		for name, xs := range part.Samples {
			for _, x := range xs {
				out.sample(name, x)
			}
		}
		out.Attempted += part.Attempted
		out.Failed += part.Failed
		for _, p := range part.Problems {
			out.check(false, "part %d: %s", i, p)
		}
	}
	steal := out.Samples["steal_ticks"]
	cut := median(append([]float64(nil), steal...))
	for _, d := range endToEnd {
		xs := out.Samples[d.Name]
		if d.Name != "heap_live_mib" { // one sample per part, not per window
			var kept []float64
			for i, x := range xs {
				if steal[i] <= cut {
					kept = append(kept, x)
				}
			}
			xs = kept
		}
		out.set(d.Name, median(xs))
		fmt.Printf("%-16s %d samples from %d parts, %.6g..%.6g %s\n", d.Name, len(xs), parts, slices.Min(xs), slices.Max(xs), d.Unit)
	}
	fmt.Printf("host steal per window: %.0f..%.0f ticks; windows above %.0f dropped\n", slices.Min(steal), slices.Max(steal), cut)
	return nil
}

// stealTicks reads the CPU time the hypervisor took from this machine
// (the steal column of /proc/stat, in clock ticks summed over CPUs); 0
// where it is not reported.
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v
}

// checkConservation gates the engine's packet accounting: every injected
// packet is delivered or dropped, by the middlebox or a queue.
func checkConservation(out *outcome, rep *gallium.Report) {
	s := rep.Stats
	out.check(s.Injected == s.Delivered+s.MBDrops+s.QueueDrops,
		"injected %d != delivered %d + mb drops %d + queue drops %d", s.Injected, s.Delivered, s.MBDrops, s.QueueDrops)
}

// liveHeapMiB is the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// usage is a process resource snapshot.
type usage struct {
	cpuNs      int64
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	pauseNs    uint64
}

func snapshot() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
	}, nil
}

func (u *usage) add(from, to usage) {
	u.cpuNs += to.cpuNs - from.cpuNs
	u.mallocs += to.mallocs - from.mallocs
	u.allocBytes += to.allocBytes - from.allocBytes
	u.numGC += to.numGC - from.numGC
	u.pauseNs += to.pauseNs - from.pauseNs
}

// tracePackets is the traced run: compile layers, the engine's CPU and
// report counters over a timed phase, then the replica with and without
// spans; it prints the ledger reconciling the two.
func tracePackets(cfg config, tr *traffic, arts []*gallium.Artifacts, out *outcome) error {
	budget := int64(cfg.seconds * 1e9)
	var specs []middleboxes.Spec
	for _, name := range tr.mbs {
		s, err := middleboxes.Lookup(name)
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	if _, err := traceCompile(specs, out, 0, traceCompilePasses); err != nil {
		return err
	}
	eng, err := traceEngine(tr, arts, budget/2, out)
	if err != nil {
		return err
	}
	rp, err := traceReplica(tr, arts, budget/2)
	if err != nil {
		return err
	}
	return ledger(cfg, tr, eng, rp, out)
}

// engineRun is what the traced run's engine phase measured.
type engineRun struct {
	pkts  int64
	use   usage
	stage map[string]float64 // per-stage switch fast-path ratio
}

// traceEngine runs the workload's untraced engine for budget, accounting
// process CPU, allocations and GC over the timed chunks only, and reads
// the engine's report between chunks.
func traceEngine(tr *traffic, arts []*gallium.Artifacts, budget int64, out *outcome) (*engineRun, error) {
	d := newDatapath(tr)
	stopWatch := d.watch()
	defer stopWatch()
	if _, err := d.setUp(); err != nil {
		return nil, err
	}
	defer d.sess.Close()
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	var rc *reconfigurer
	if tr.name == "chain" {
		targets := make([]ctlplane.Target, len(arts))
		for i, a := range arts {
			targets[i] = ctlplane.Target{Name: a.Name, Res: a.Res, Prog: a.Prog}
		}
		rc = d.startReconfigurer(func(op gallium.ReconfigOp) error {
			_, err := ctlplane.Compile(op, targets, tr.workers)
			return err
		})
	}
	d.counting.Store(true)
	d.lat.reset()
	before, err := d.sess.Stats()
	if err != nil {
		return nil, err
	}
	run := &engineRun{stage: map[string]float64{}}
	var timed int64
	var batch []float64
	resets := d.ring.resets
	resetNs := d.ring.resetNs
	for timed < budget {
		d.next()
		u0, err := snapshot()
		if err != nil {
			return nil, err
		}
		el, err := d.send()
		if err != nil {
			return nil, err
		}
		u1, err := snapshot()
		if err != nil {
			return nil, err
		}
		run.use.add(u0, u1)
		timed += el
		run.pkts += int64(len(d.ring.pkts))
		rep, err := d.sess.Stats()
		if err != nil {
			return nil, err
		}
		sum := 0
		for _, b := range rep.BatchSizes {
			sum += b
		}
		batch = append(batch, float64(sum)/float64(len(rep.BatchSizes)))
	}
	var wall, ctl []float64
	if rc != nil {
		rc.stop(d)
		if rc.err != nil {
			return nil, fmt.Errorf("reconfigure: %w", rc.err)
		}
		wall, ctl = rc.wall, rc.ctl
	}
	after, err := d.sess.Stats()
	if err != nil {
		return nil, err
	}
	rep, err := d.sess.Close()
	if err != nil {
		return nil, err
	}
	checkConservation(out, rep)

	injected := float64(after.Stats.Injected - before.Stats.Injected)
	delivered := float64(after.Stats.Delivered - before.Stats.Delivered)
	out.Attempted, out.Failed = run.pkts, run.pkts-int64(delivered)
	out.set("switchsim.fast_path_ratio", ratio(float64(after.Stats.FastPath-before.Stats.FastPath), injected))
	for i, sw := range after.SwitchStages {
		b := before.SwitchStages[i]
		run.stage[arts[i].Name] = ratio(float64(sw.FastPath-b.FastPath), float64(sw.PrePackets-b.PrePackets))
	}
	out.set("switchsim.ctl_rejected", float64(after.Stats.CtlRejected-before.Stats.CtlRejected))
	out.set("engine.loss_ratio", ratio(injected-delivered, injected))
	out.set("switchsim.remiss", float64(len(d.remiss)))
	var expired, evicted, peak float64
	if f, b := after.Flow, before.Flow; f != nil && b != nil {
		expired, evicted, peak = float64(f.Expired-b.Expired), float64(f.Evicted-b.Evicted), float64(f.Peak)
	}
	out.set("flowstate.expired", expired)
	out.set("flowstate.evicted", evicted)
	out.set("flowstate.occupancy_peak", peak)
	out.set("engine.batch_size_mean", median(batch))
	ctlMed := median(ctl)
	out.set("ctlplane.compile_us", ctlMed/1e3)
	out.set("engine.reconfigure_us", max(median(wall)-ctlMed, 0)/1e3)
	out.set("engine.reconfig_p50_us", quantile(wall, 0.5)/1e3)
	out.set("engine.reconfig_p90_us", quantile(wall, 0.9)/1e3)
	out.set("engine.lat_p99_us", quantile(d.lat.xs, 0.99)/1e3)
	out.set("engine.cpu_ns_per_pkt", ratio(float64(run.use.cpuNs), float64(run.pkts)))
	out.set("engine.allocs_per_pkt", ratio(float64(run.use.mallocs), float64(run.pkts)))
	out.set("runtime.gc_cycles", float64(run.use.numGC))
	out.set("runtime.gc_pause_ms", float64(run.use.pauseNs)/1e6)
	out.set("gen.reset_ms", ratio(float64(d.ring.resetNs-resetNs), float64(d.ring.resets-resets))/1e6)
	fmt.Printf("engine phase: %d packets in %.3fs, %d reconfigurations\n", run.pkts, float64(timed)/1e9, len(wall))
	return run, nil
}
