package main

import (
	"fmt"
	"slices"
	"time"

	"gallium"
)

const (
	// keepSpans bounds the spans written to the span file.
	keepSpans = 1 << 14
	// allocPackets is how many packets the replica's alloc pass reads the
	// allocation counter around.
	allocPackets = 2048
)

// replicaRun is what the traced run's replica phase measured.
type replicaRun struct {
	names *tracer
	lane  *lane
	// traced and untraced packet counts and wall time.
	tracedPkts, tracedNs     int64
	untracedPkts, untracedNs int64
	// opsTraced counts switch update ops applied in traced chunks, by stage.
	opsTraced map[string]int64
	// steps and updates are per replayed packet, by stage; rejected counts
	// updates refused by full switch tables.
	steps, updates map[string]float64
	rejected       int64
	allocPkts      int64
}

// traceReplica drives the single-lane replica over the workload's packet
// sequence, alternating chunks with and without spans for budget, then
// runs the alloc pass.
func traceReplica(tr *traffic, arts []*gallium.Artifacts, budget int64) (*replicaRun, error) {
	names := newTracer(keepSpans)
	ln, err := newLane(arts, tr, names)
	if err != nil {
		return nil, err
	}
	rp := &replicaRun{names: names, lane: ln, opsTraced: map[string]int64{},
		steps: map[string]float64{}, updates: map[string]float64{}}
	r := newRing(tr)
	var vt int64
	send := func(pkts int) error {
		for _, p := range r.pkts[:pkts] {
			if _, err := ln.process(vt*tr.gapNs, p, vt); err != nil {
				return fmt.Errorf("replica: packet %d: %w", vt, err)
			}
			vt++
		}
		return nil
	}
	for _, p := range tr.openPackets() {
		if _, err := ln.process(vt*tr.gapNs, p, vt); err != nil {
			return nil, err
		}
		vt++
	}
	r.restore(0)
	if err := send(len(r.pkts)); err != nil {
		return nil, err
	}
	for _, st := range ln.stages {
		st.steps, st.updates, st.ops, st.rejected = 0, 0, 0, 0
	}
	c := int64(1)
	for ; rp.tracedNs+rp.untracedNs < budget; c++ {
		r.restore(c)
		traced := c%2 == 0
		ops := map[string]int64{}
		if traced {
			ln.tr = names
			for _, st := range ln.stages {
				ops[st.name] = st.ops
			}
		}
		t0 := time.Now()
		err := send(len(r.pkts))
		el := since(t0)
		ln.tr = nil
		if err != nil {
			return nil, err
		}
		if traced {
			names.fold()
			rp.tracedPkts += int64(len(r.pkts))
			rp.tracedNs += el
			for _, st := range ln.stages {
				rp.opsTraced[st.name] += st.ops - ops[st.name]
			}
		} else {
			rp.untracedPkts += int64(len(r.pkts))
			rp.untracedNs += el
		}
	}
	counted := float64(rp.tracedPkts + rp.untracedPkts)
	for _, st := range ln.stages {
		rp.steps[st.name] = float64(st.steps) / counted
		rp.updates[st.name] = float64(st.updates) / counted
		rp.rejected += st.rejected
	}
	r.restore(c)
	ln.memstats = true
	rp.allocPkts = min(allocPackets, int64(len(r.pkts)))
	err = send(int(rp.allocPkts))
	ln.memstats = false
	return rp, err
}

// ledger derives the per-layer metrics from the replica's spans and
// counters, prints the per-packet self-time table beside the engine's CPU
// per packet, and writes the kept spans. The difference between the two
// is reported as engine.unaccounted_ns_per_pkt, never folded into a
// layer.
func ledger(cfg config, tr *traffic, eng *engineRun, rp *replicaRun, out *outcome) error {
	t := rp.names
	pkts := float64(rp.tracedPkts)
	perPkt := func(name string) float64 { return ratio(float64(t.selfNs(name)), pkts) }
	type row struct {
		name string
		ns   float64
	}
	rows := []row{{"engine.dispatch", perPkt("engine.dispatch")}}
	out.set("engine.dispatch_ns", rows[0].ns)

	sums := map[string]float64{}
	var applyNs, ops float64
	for _, mb := range stageNames {
		vals := map[string]float64{}
		if slices.Contains(tr.mbs, mb) {
			for _, layer := range []string{"switchsim.pre", "packet.serialize", "packet.decode", "serverrt.process", "switchsim.apply", "switchsim.post"} {
				rows = append(rows, row{layer + "." + mb, perPkt(layer + "." + mb)})
			}
			st := rp.lane.stage(mb)
			apply := float64(t.selfNs("switchsim.apply." + mb))
			applyNs += apply
			ops += float64(rp.opsTraced[mb])
			vals["switchsim.pre_ns"] = perPkt("switchsim.pre." + mb)
			vals["packet.serialize_ns"] = perPkt("packet.serialize." + mb)
			vals["packet.decode_ns"] = perPkt("packet.decode." + mb)
			vals["serverrt.process_ns"] = perPkt("serverrt.process." + mb)
			vals["switchsim.post_ns"] = perPkt("switchsim.post." + mb)
			vals["switchsim.apply_ns_per_op"] = ratio(apply, float64(rp.opsTraced[mb]))
			vals["switchsim.pre_allocs"] = ratio(float64(st.preAllocs), float64(rp.allocPkts))
			vals["serverrt.allocs_per_pkt"] = ratio(float64(st.serverAllocs), float64(rp.allocPkts))
			vals["serverrt.steps_per_pkt"] = rp.steps[mb]
			vals["serverrt.updates_per_pkt"] = rp.updates[mb]
			vals["switchsim.fast_path_ratio"] = eng.stage[mb]
		}
		for _, d := range stageMetrics {
			v := vals[d.Name]
			out.set(d.Name+"."+mb, v)
			if d.Name != "switchsim.fast_path_ratio" && d.Name != "switchsim.apply_ns_per_op" {
				sums[d.Name] += v
			}
		}
	}
	for name, v := range sums {
		out.set(name, v)
	}
	out.set("switchsim.apply_ns_per_op", ratio(applyNs, ops))
	sweeps := float64(t.count("flowstate.sweep"))
	out.set("flowstate.sweep_us", ratio(float64(t.selfNs("flowstate.sweep")), sweeps)/1e3)
	rows = append(rows, row{"flowstate.sweep", perPkt("flowstate.sweep")})

	traced := ratio(float64(rp.tracedNs), float64(rp.tracedPkts))
	untraced := ratio(float64(rp.untracedNs), float64(rp.untracedPkts))
	out.set("trace.overhead_pct", 100*(ratio(traced, untraced)-1))

	cpu := out.values["engine.cpu_ns_per_pkt"]
	fmt.Printf("ledger %s: replica self time per packet (%d traced packets) against engine CPU per packet\n",
		tr.name, rp.tracedPkts)
	var sum float64
	for _, r := range rows {
		sum += r.ns
		fmt.Printf("  %-36s %10.1f ns\n", r.name, r.ns)
	}
	fmt.Printf("  %-36s %10.1f ns\n", "sum of layers", sum)
	fmt.Printf("  %-36s %10.1f ns\n", "replica.glue (replica's own loop)", perPkt("replica.packet"))
	fmt.Printf("  %-36s %10.1f ns\n", "engine.cpu_ns_per_pkt", cpu)
	fmt.Printf("  %-36s %10.1f ns\n", "engine.unaccounted_ns_per_pkt", cpu-sum)
	out.set("engine.unaccounted_ns_per_pkt", cpu-sum)
	fmt.Printf("replica: %.1f ns/packet traced, %.1f untraced; %d updates rejected; span cost %d ns inside, %d ns per span\n",
		traced, untraced, rp.rejected, t.inner, t.outer)

	path, err := t.write(cfg.spansDir, cfg)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d kept of the first traced chunk in %s\n", len(t.kept), path)
	return nil
}
