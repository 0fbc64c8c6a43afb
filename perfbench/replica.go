package main

import (
	"errors"
	"fmt"
	"runtime"

	"gallium"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/netsim"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// lane is a single-lane replica of the engine datapath (engine.runStage
// and the control-plane drainer): it calls the same public functions of
// packet, netsim, switchsim, serverrt and flowstate in the same order,
// seeds state the way the engine's scenario seeding does, and applies
// write-backs synchronously where the engine hands them to a drainer.
// With a tracer attached it records a span around every layer call.
type lane struct {
	stages []*laneStage
	// workers is the shard count of the engine under test; the replica
	// computes the same dispatch hash, though it has only one lane.
	workers int
	flowCfg *flowstate.Config
	// sweepDue and lastTNs mirror the engine worker's sweep cadence and
	// virtual clock.
	sweepDue int
	lastTNs  int64

	// tr is the tracer while tracing and nil otherwise.
	tr                    *tracer
	root, dispatch, sweep uint16
	// memstats makes process read the allocation counter around the
	// switch pre pass and the server call (the alloc pass).
	memstats bool
	ms       runtime.MemStats
	sinkFlow packet.FiveTuple
	sinkRSS  int
}

// laneStage is one pipeline stage of the replica with its counters.
type laneStage struct {
	name    string
	res     *partition.Result
	sw      *switchsim.Switch
	srv     *serverrt.Server
	tracker *flowstate.Tracker
	touch   func(string, ir.MapKey)
	off     map[string]bool

	pre, ser, dec, server, apply, post uint16

	steps, updates, ops, rejected int64
	preAllocs, serverAllocs       uint64
}

// newLane builds the replica over compiled stages, seeded like shard 0 of
// a one-worker engine: middleboxes.ConfigureShard, the scenario's
// per-flow firewall rules, and the switch seeded from the server state.
func newLane(arts []*gallium.Artifacts, tr *traffic, names *tracer) (*lane, error) {
	l := &lane{workers: tr.workers}
	l.root = names.name("replica.packet")
	l.dispatch = names.name("engine.dispatch")
	l.sweep = names.name("flowstate.sweep")
	if tr.flowTable != nil {
		c := tr.flowTable.Shard(1)
		l.flowCfg = &c
	}
	for _, a := range arts {
		st := &laneStage{name: a.Name, res: a.Res, sw: switchsim.New(a.Res), srv: serverrt.New(a.Res)}
		st.sw.ConfigureShards(1)
		seedScenario(a.Name, tr.flows, st.srv.State)
		if err := st.sw.SeedFrom(st.srv.State); err != nil {
			return nil, err
		}
		if l.flowCfg != nil {
			if dyn := flowstate.DynamicMaps(a.Res.Prog); len(dyn) > 0 {
				st.tracker = flowstate.NewTracker(*l.flowCfg, st.srv.State, dyn)
				st.touch = st.srv.State.Touch
			}
		}
		st.off = map[string]bool{}
		for _, g := range a.Res.OffloadedGlobals {
			st.off[g] = true
		}
		n := func(layer string) uint16 { return names.name(layer + "." + a.Name) }
		st.pre, st.post, st.server, st.apply = n("switchsim.pre"), n("switchsim.post"), n("serverrt.process"), n("switchsim.apply")
		st.ser, st.dec = n("packet.serialize"), n("packet.decode")
		l.stages = append(l.stages, st)
	}
	return l, nil
}

// seedScenario is the scenario seeding of one shard of a one-worker
// deployment, as gallium.WithScenario does it.
func seedScenario(name string, flows []packet.FiveTuple, st *ir.State) {
	middleboxes.ConfigureShard(name, 0, 1, st)
	if name == "firewall" {
		for _, t := range flows {
			middleboxes.AllowFlow(st, t)
		}
	}
}

// mallocs reads the exact allocation count (ReadMemStats flushes the
// per-P caches, which runtime/metrics does not).
func (l *lane) mallocs() uint64 {
	runtime.ReadMemStats(&l.ms)
	return l.ms.Mallocs
}

// process carries one packet through every stage and reports whether it
// was delivered; pkt holds the rewritten headers afterwards.
func (l *lane) process(tNs int64, pkt *packet.Packet, id int64) (bool, error) {
	root := l.tr.begin(l.root, -1, id)
	sp := l.tr.begin(l.dispatch, root, id)
	l.sinkFlow, _ = pkt.DispatchTuple()
	l.sinkRSS = netsim.RSSShard(pkt, l.workers)
	l.tr.end(sp)
	if l.flowCfg != nil {
		l.setClock(tNs, pkt)
	}
	delivered := true
	for _, st := range l.stages {
		ok, err := l.runStage(st, pkt, root, id)
		if err != nil {
			return false, fmt.Errorf("%s: %w", st.name, err)
		}
		if !ok {
			delivered = false
			break
		}
	}
	l.tr.end(root)
	if l.flowCfg != nil {
		if l.sweepDue++; l.sweepDue >= l.flowCfg.SweepEvery {
			l.sweepDue = 0
			if err := l.expire(); err != nil {
				return false, err
			}
		}
	}
	return delivered, nil
}

// setClock mirrors the engine worker's setClock: the packet's virtual time
// and traffic class, taken before any stage rewrites headers.
func (l *lane) setClock(tNs int64, pkt *packet.Packet) {
	if tNs > l.lastTNs {
		l.lastTNs = tNs
	}
	class := uint8(flowstate.ClassOf(pkt))
	for _, st := range l.stages {
		if st.tracker != nil {
			st.srv.State.NowNs = tNs
			st.srv.State.Class = class
		}
	}
}

// runStage mirrors engine.runStage for one stage; false means the stage
// dropped the packet.
func (l *lane) runStage(st *laneStage, pkt *packet.Packet, root int32, id int64) (bool, error) {
	var before uint64
	if l.memstats {
		before = l.mallocs()
	}
	sp := l.tr.begin(st.pre, root, id)
	pre, err := st.sw.ProcessPreShard(pkt, 0, st.touch)
	l.tr.end(sp)
	if l.memstats {
		st.preAllocs += l.mallocs() - before
	}
	if err != nil {
		return false, err
	}
	if pre.Punt {
		return false, errors.New("replica: cache-mode punts are not replicated")
	}
	switch pre.Action {
	case ir.ActionDropped:
		return false, nil
	case ir.ActionSent:
		return true, nil
	}

	sp = l.tr.begin(st.ser, root, id)
	wire := pkt.Serialize()
	l.tr.end(sp)
	sp = l.tr.begin(st.dec, root, id)
	rx, err := packet.DecodePacket(wire, st.res.FormatA)
	l.tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("server rx: %w", err)
	}
	if l.memstats {
		before = l.mallocs()
	}
	sp = l.tr.begin(st.server, root, id)
	res, err := st.srv.Process(rx)
	l.tr.end(sp)
	if l.memstats {
		st.serverAllocs += l.mallocs() - before
	}
	if err != nil {
		return false, err
	}
	st.steps += int64(res.Steps)
	st.updates += int64(len(res.Updates))
	if len(res.Updates) > 0 {
		if err := l.applyUpdates(st, res.Updates, root, id); err != nil {
			return false, err
		}
	}
	switch res.Action {
	case ir.ActionDropped:
		return false, nil
	case ir.ActionSent:
		*pkt = *rx
		return true, nil
	}

	sp = l.tr.begin(st.ser, root, id)
	wire = rx.Serialize()
	l.tr.end(sp)
	sp = l.tr.begin(st.dec, root, id)
	back, err := packet.DecodePacket(wire, st.res.FormatB)
	l.tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("switch rx from server: %w", err)
	}
	sp = l.tr.begin(st.post, root, id)
	post, err := st.sw.ProcessPostShard(back, 0, st.touch)
	l.tr.end(sp)
	if err != nil {
		return false, err
	}
	*pkt = *back
	return post.Action != ir.ActionDropped, nil
}

// applyUpdates mirrors the engine's control-plane drainer for one batch:
// stage every update (lane-eligible ones into the shard lane), flip the
// global state before the lane, and compact.
func (l *lane) applyUpdates(st *laneStage, ups []switchsim.Update, parent int32, id int64) error {
	sp := l.tr.begin(st.apply, parent, id)
	defer l.tr.end(sp)
	lane, global := 0, 0
	for _, u := range ups {
		var err error
		if switchsim.LaneEligible(u) {
			if err = st.sw.StageShard(0, u); err == nil {
				lane++
			}
		} else if err = st.sw.StageWriteback(u); err == nil {
			global++
		}
		if errors.Is(err, switchsim.ErrTableFull) {
			st.rejected++
		} else if err != nil {
			return err
		}
	}
	if global > 0 {
		st.sw.FlipVisibility()
		st.sw.CompactWriteback()
	}
	if lane > 0 {
		st.sw.FlipShard(0)
		st.sw.CompactShard(0)
	}
	st.ops += int64(lane + global)
	return nil
}

// expire mirrors the engine worker's incremental sweep: expired or
// evicted entries of switch-resident tables ship as expiry deletions.
func (l *lane) expire() error {
	sp := l.tr.begin(l.sweep, -1, -1)
	defer l.tr.end(sp)
	for _, st := range l.stages {
		if st.tracker == nil {
			continue
		}
		var ups []switchsim.Update
		for _, r := range st.tracker.Sweep(l.lastTNs, false) {
			if st.off[r.Table] {
				ups = append(ups, switchsim.Update{Table: r.Table, Key: r.Key, Delete: true, Expire: true})
			}
		}
		if len(ups) > 0 {
			if err := l.applyUpdates(st, ups, sp, -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// stage returns the replica stage running the named middlebox.
func (l *lane) stage(name string) *laneStage {
	for _, st := range l.stages {
		if st.name == name {
			return st
		}
	}
	return nil
}
