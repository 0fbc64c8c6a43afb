package netsim

import (
	"errors"
	"fmt"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// Stage is one middlebox of a pipeline as a lane runs it: the shared
// switch plus the lane's own server partition (offloaded), or the lane's
// software runner with the switch as a plain forwarder (Sw and Srv nil).
type Stage struct {
	Sw  *switchsim.Switch
	Srv *serverrt.Server
	Sft *serverrt.Software
	// Touch, when non-nil, receives every table hit of the switch passes
	// (the flow-state lifecycle's fast-path liveness stamps).
	Touch func(table string, key ir.MapKey)
}

// Writeback is one slow-path write-back batch a lane hands to its commit
// hook.
type Writeback struct {
	// Stage is the pipeline index of the stage whose server emitted it.
	Stage   int
	Updates []switchsim.Update
	// Punt marks a §7 cache-mode batch. Updates then holds only what
	// serverrt.ClassifyUpdates kept (fills, then synchronous updates) as
	// the switch stood when the server finished; a driver that stages the
	// batch later re-classifies it against the switch of that moment.
	Punt bool
	// Sync means output commit holds the packet until the batch is
	// visible: always on the partitioned slow path, and on a punt only
	// when the batch carries synchronous updates (fills never stall).
	Sync bool
	// Ops is the batch's control-plane operation count as classified now.
	Ops int
	// DoneNs is when the server finished the packet (virtual ns).
	DoneNs int64
}

// Lane runs packets to completion through a pipeline — switch pre-pass,
// server partition under output commit, switch post-pass, per stage — in
// virtual time (§4.3). It is the one datapath both simulators share: the
// sequential testbed is a single lane over Config.Cores simulated cores,
// and each engine worker is a lane over its own core.
type Lane struct {
	// Stats accumulates the lane's traffic counters.
	Stats Stats
	// Slow reports whether the last packet left the switch fast path.
	Slow bool

	model CostModel
	// id is the lane's switch shard for the pre- and post-passes.
	id int
	// coreFreeNs holds the next-free virtual time of each server core;
	// packets are RSS-steered across them after the pre-pass.
	coreFreeNs []int64
	// commit ships a write-back batch and returns the virtual time at
	// which output commit releases the packet.
	commit func(Writeback) (int64, error)
	// jitter drives deterministic endpoint-stack latency noise.
	jitter uint64

	// The fields below are the testbed's: its current packet's hop trace,
	// its scheduled visibility flips (global notes that some staged update
	// took the global path), and its observability handles. They stay zero
	// in the engine, whose drainers apply write-backs asynchronously and
	// whose trace methods are never reached.
	trace  *obs.Trace
	flips  []int64
	global bool
	o      laneObs
}

// laneObs are the testbed's server-side metric handles (nil-safe).
type laneObs struct {
	stalled            *obs.Counter
	wait, stall        *obs.Histogram
	corePkts, coreBusy []*obs.Counter
}

// NewLane builds a lane: shard id on the switch, cores simulated server
// cores, seed for its endpoint jitter stream, and commit as its
// write-back hook.
func NewLane(model CostModel, id, cores int, seed uint64, commit func(Writeback) (int64, error)) Lane {
	return Lane{model: model, id: id, coreFreeNs: make([]int64, cores), jitter: seed, commit: commit}
}

// verdict is one stage's outcome for a packet.
type verdict int

const (
	cont verdict = iota
	mbDrop
	queueDrop
)

// Run carries one packet, injected by its source application at tNs,
// through every stage to the sink. A packet that survives stage i feeds
// stage i+1 with its rewritten headers; any stage may drop it.
func (l *Lane) Run(tNs int64, pkt *packet.Packet, stages []Stage) (Delivery, error) {
	m := &l.model
	l.Stats.Injected++
	size := pkt.WireLen()
	l.Stats.BytesIn += int64(size)
	l.Slow = false

	// Source stack + first link.
	t := float64(tNs) + l.stackNs() + m.SerializationNs(size) + m.LinkPropNs
	for i := range stages {
		v, err := l.stage(i, &stages[i], pkt, &t)
		if err != nil {
			return Delivery{}, err
		}
		switch v {
		case mbDrop:
			l.Stats.MBDrops++
			if !l.Slow {
				l.Stats.FastPath++
			}
			return Delivery{MBDropped: true, FastPath: !l.Slow}, nil
		case queueDrop:
			l.Stats.QueueDrops++
			return Delivery{QueueDropped: true}, nil
		}
	}
	if !l.Slow {
		l.Stats.FastPath++
	}

	// Final link into the sink host.
	t += m.SerializationNs(pkt.WireLen()) + m.LinkPropNs + l.stackNs()
	d := Delivery{Delivered: true, FastPath: !l.Slow, DeliverNs: int64(t), LatencyNs: int64(t) - tNs}
	l.Stats.Delivered++
	l.Stats.BytesOut += int64(pkt.WireLen())
	if l.Stats.FirstDeliverNs == 0 || d.DeliverNs < l.Stats.FirstDeliverNs {
		l.Stats.FirstDeliverNs = d.DeliverNs
	}
	if d.DeliverNs > l.Stats.LastDeliverNs {
		l.Stats.LastDeliverNs = d.DeliverNs
	}
	return d, nil
}

// stackNs returns the endpoint stack latency with deterministic jitter
// (an xorshift stream scaled into ±StackJitterFrac/2).
func (l *Lane) stackNs() float64 {
	m := &l.model
	if m.StackJitterFrac == 0 {
		return m.EndpointStackNs
	}
	x := l.jitter*2862933555777941757 + 3037000493
	l.jitter = x
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return m.EndpointStackNs * (1 + m.StackJitterFrac*(u-0.5))
}

// markSlow accounts the packet's first departure from the fast path; the
// counter is per packet, not per stage, so a chained pipeline counts like
// a single middlebox would.
func (l *Lane) markSlow() {
	if !l.Slow {
		l.Slow = true
		l.Stats.SlowPath++
	}
}

// stage carries the packet through stage si. On cont, *t is the virtual
// time at which the packet leaves the stage and pkt carries its rewritten
// headers.
func (l *Lane) stage(si int, st *Stage, pkt *packet.Packet, t *float64) (verdict, error) {
	if st.Sw == nil {
		return l.software(st, pkt, t)
	}
	if len(l.flips) > 0 {
		l.applyFlips(st.Sw, int64(*t))
	}
	tr := l.trace
	var hop *obs.Hop
	if tr != nil {
		hop = tr.Hop("switch-pre", int64(*t))
		st.Sw.TraceHop(hop)
	}
	pre, err := st.Sw.ProcessPreShard(pkt, l.id, st.Touch)
	if tr != nil {
		st.Sw.TraceHop(nil)
		hop.SetSteps(pre.Steps)
	}
	if err != nil {
		return 0, err
	}
	*t += l.model.SwitchPipelineNs
	if pre.Punt {
		hop.SetAction("punt")
		return l.server(si, st, pkt, t, true)
	}
	if tr != nil {
		hop.SetAction(pre.Action.String())
	}
	switch pre.Action {
	case ir.ActionDropped:
		tr.Hop("drop", int64(*t)).SetNote("middlebox drop on switch")
		return mbDrop, nil
	case ir.ActionSent:
		return cont, nil
	}
	return l.server(si, st, pkt, t, false)
}

// server is the slow path: switch → server link, the server core's queue
// and service, output commit of the write-back batch, and — unless the
// server finished the packet — the post-pass back through the switch.
// punt is a §7 cache-mode punt: the unmodified packet runs the complete
// middlebox against the authoritative state, and leaves as plain
// forwarding.
func (l *Lane) server(si int, st *Stage, pkt *packet.Packet, t *float64, punt bool) (verdict, error) {
	m := &l.model
	l.markSlow()
	*t += m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	core, arrive, start, ok := l.queue(pkt, *t)
	if !ok {
		return queueDrop, nil
	}
	// The frame crosses the switch-server link carrying gallium_a (none on
	// a punt): serialize and reparse to exercise the real wire format.
	format, site := st.Srv.Res.FormatA, "server"
	if punt {
		format, site = nil, "server-full"
	}
	rx, err := packet.DecodePacket(pkt.Serialize(), format)
	if err != nil {
		return 0, fmt.Errorf("netsim: server rx: %w", err)
	}
	hop := l.trace.Hop(site, start)
	var res serverrt.Result
	if punt {
		res, err = st.Srv.ProcessFull(rx)
	} else {
		res, err = st.Srv.Process(rx)
	}
	if err != nil {
		return 0, err
	}
	done := l.serve(core, arrive, start, res, hop)

	release := done
	if len(res.Updates) > 0 {
		wb := Writeback{Stage: si, Updates: res.Updates, Punt: punt, Sync: true, Ops: len(res.Updates), DoneNs: done}
		if punt {
			fills, syncs := serverrt.ClassifyUpdates(st.Sw, res.Updates)
			wb.Updates, wb.Sync, wb.Ops = append(fills, syncs...), len(syncs) > 0, len(fills)+len(syncs)
		}
		if release, err = l.commit(wb); err != nil {
			return 0, err
		}
	}
	if release > done {
		// Output commit held the packet until its write-back batch flipped.
		l.o.stalled.Inc()
		l.o.stall.Observe(release - done)
		if hop != nil {
			hop.SetNote(fmt.Sprintf("output commit stalled %.2fµs", float64(release-done)/1000))
		}
	}

	switch {
	case res.Action == ir.ActionDropped:
		l.trace.Hop("drop", done).SetNote("middlebox drop on server")
		return mbDrop, nil
	case punt || res.Action == ir.ActionSent:
		// The server finished the packet: back out through the switch as
		// plain forwarding.
		*t = float64(release) + m.SerializationNs(rx.WireLen()) + m.LinkPropNs + m.SwitchPipelineNs
		*pkt = *rx
		return cont, nil
	}

	// Back to the switch (carrying gallium_b) for post-processing.
	tBack := float64(release) + m.SerializationNs(rx.WireLen()) + m.LinkPropNs
	if len(l.flips) > 0 {
		l.applyFlips(st.Sw, int64(tBack))
	}
	back, err := packet.DecodePacket(rx.Serialize(), st.Srv.Res.FormatB)
	if err != nil {
		return 0, fmt.Errorf("netsim: switch rx from server: %w", err)
	}
	postHop := l.trace.Hop("switch-post", int64(tBack))
	if postHop != nil {
		st.Sw.TraceHop(postHop)
	}
	post, err := st.Sw.ProcessPostShard(back, l.id, st.Touch)
	if postHop != nil {
		st.Sw.TraceHop(nil)
		postHop.SetSteps(post.Steps)
		postHop.SetAction(post.Action.String())
	}
	if err != nil {
		return 0, err
	}
	tBack += m.SwitchPipelineNs
	*pkt = *back
	if post.Action == ir.ActionDropped {
		l.trace.Hop("drop", int64(tBack)).SetNote("middlebox drop on switch post-pass")
		return mbDrop, nil
	}
	*t = tBack
	return cont, nil
}

// software runs one stage of the software baseline (the FastClick
// comparison): plain forwarding through the switch, then the whole
// middlebox on a server core.
func (l *Lane) software(st *Stage, pkt *packet.Packet, t *float64) (verdict, error) {
	m := &l.model
	*t += m.SwitchPipelineNs + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	core, arrive, start, ok := l.queue(pkt, *t)
	if !ok {
		return queueDrop, nil
	}
	l.markSlow()
	hop := l.trace.Hop("server", start)
	res, err := st.Sft.Process(pkt)
	if err != nil {
		return 0, err
	}
	done := l.serve(core, arrive, start, res, hop)
	if res.Action == ir.ActionDropped {
		l.trace.Hop("drop", done).SetNote("middlebox drop on server")
		return mbDrop, nil
	}
	*t = float64(done) + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs + m.SwitchPipelineNs
	return cont, nil
}

// queue steers a packet arriving at the server at t to its RSS core and
// returns when service can start; ok is false when the wait would
// overflow the ingress queue.
func (l *Lane) queue(pkt *packet.Packet, t float64) (core int, arrive, start int64, ok bool) {
	core = RSSShard(pkt, len(l.coreFreeNs))
	arrive = int64(t)
	start = max(arrive, l.coreFreeNs[core])
	if float64(start-arrive) > l.model.MaxQueueDelayNs {
		l.trace.Hop("drop", start).SetNote("server queue overflow")
		return core, arrive, start, false
	}
	return core, arrive, start, true
}

// serve accounts one packet's service on its core and returns when the
// server is done with it. The core is busy only for the CPU service time;
// the fixed datapath latency (NIC, PCIe, DPDK polling) is pipelined on
// top.
func (l *Lane) serve(core int, arrive, start int64, res serverrt.Result, hop *obs.Hop) int64 {
	m := &l.model
	busyUntil := start + int64(m.ServerServiceNs(res.Steps))
	l.coreFreeNs[core] = busyUntil
	l.Stats.ServerCycles += m.ServerCycles(res.Steps)
	if l.o.corePkts != nil {
		l.o.corePkts[core].Inc()
		l.o.coreBusy[core].Add(uint64(busyUntil - start))
		l.o.wait.Observe(start - arrive)
	}
	if hop != nil {
		hop.SetSteps(res.Steps)
		hop.SetAction(res.Action.String())
		if start > arrive {
			hop.SetNote(fmt.Sprintf("queued %.2fµs on core %d", float64(start-arrive)/1000, core))
		}
	}
	return busyUntil + int64(m.ServerDatapathNs)
}

// applyFlips makes every scheduled write-back flip due by nowNs visible
// to the data plane: the global staging first (when it holds anything),
// then the lane's own, which folds into the main tables at once.
func (l *Lane) applyFlips(sw *switchsim.Switch, nowNs int64) {
	kept := l.flips[:0]
	for _, at := range l.flips {
		if at > nowNs {
			kept = append(kept, at)
			continue
		}
		if l.global {
			sw.FlipVisibility()
			l.global = false
		}
		sw.FlipShard(l.id)
		sw.FoldShards()
		l.Stats.CtlBatches++
	}
	l.flips = kept
}

// StageBatch stages one write-back batch on sw: the staging half of the
// §4.3.3 protocol that every control-plane path shares. A §7 punt batch
// stages only what serverrt.ClassifyUpdates keeps. With shard >= 0,
// lane-eligible updates ride that shard's switch lane and the rest the
// global path; shard < 0 stages everything globally. A full table is a
// soft failure — the update counts as rejected and its entry stays
// server-only — while any other error stops the batch. The caller flips.
func StageBatch(sw *switchsim.Switch, shard int, updates []switchsim.Update, punt bool) (lane, global, rejected int, err error) {
	if punt {
		fills, syncs := serverrt.ClassifyUpdates(sw, updates)
		updates = append(fills, syncs...)
	}
	for _, u := range updates {
		if shard >= 0 && switchsim.LaneEligible(u) {
			if err = sw.StageShard(shard, u); err == nil {
				lane++
				continue
			}
		} else if err = sw.StageWriteback(u); err == nil {
			global++
			continue
		}
		if !errors.Is(err, switchsim.ErrTableFull) {
			return lane, global, rejected, err
		}
		rejected++
	}
	return lane, global, rejected, nil
}

// Reconfigure applies one control-plane reconfiguration to sw at a
// quiescent point: fold every lane into the main tables (so a stale lane
// entry cannot shadow the batch's deletions), stage the whole batch on
// the global path, flip once, and count it. The testbed and the engine
// both reconfigure through it.
func Reconfigure(sw *switchsim.Switch, updates []switchsim.Update) (staged, rejected int, err error) {
	sw.FoldShards()
	if _, staged, rejected, err = StageBatch(sw, -1, updates, false); err != nil {
		return staged, rejected, err
	}
	sw.FlipVisibility()
	sw.MarkReconfig()
	return staged, rejected, nil
}
