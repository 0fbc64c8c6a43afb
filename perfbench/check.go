package main

import (
	"fmt"
	"sync"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/packet"
)

// equivalencePackets is how many of a workload's first packets the
// correctness check replays through every leg.
const equivalencePackets = 4096

// fate is one packet's observable outcome: delivered or not, and its wire
// bytes (without any transfer header) when delivered.
type fate struct {
	sent bool
	wire string
}

func fateOf(sent bool, p *packet.Packet) fate {
	if !sent {
		return fate{}
	}
	q := p.Clone()
	q.StripGallium()
	return fate{sent: true, wire: string(q.Serialize())}
}

// checkEquivalence replays the workload's first packets through the
// unpartitioned programs on the reference interpreter, the engine with
// one worker, and the single-lane replica, and records every packet whose
// fate or rewritten headers differ from the reference's.
func checkEquivalence(tr *traffic, arts []*gallium.Artifacts, out *outcome) error {
	want, err := referenceFates(tr, arts, tr.prefix(equivalencePackets))
	if err != nil {
		return err
	}
	got, err := engineFates(tr, arts, tr.prefix(equivalencePackets))
	if err != nil {
		return err
	}
	compareFates(out, "engine (1 worker)", want, got)
	ln, err := newLane(arts, tr, newTracer(0))
	if err != nil {
		return err
	}
	pkts := tr.prefix(equivalencePackets)
	rep := make([]fate, len(pkts))
	for i, p := range pkts {
		sent, err := ln.process(int64(i)*tr.gapNs, p, int64(i))
		if err != nil {
			return fmt.Errorf("replica: packet %d: %w", i, err)
		}
		rep[i] = fateOf(sent, p)
	}
	compareFates(out, "replica", want, rep)
	return nil
}

// referenceFates runs each stage's whole program through ir.Program.Exec,
// stage after stage, on state seeded like the scenario's.
func referenceFates(tr *traffic, arts []*gallium.Artifacts, pkts []*packet.Packet) ([]fate, error) {
	states := make([]*ir.State, len(arts))
	for i, a := range arts {
		states[i] = ir.NewState(a.Prog)
		seedScenario(a.Name, tr.flows, states[i])
	}
	out := make([]fate, len(pkts))
	for i, p := range pkts {
		sent := true
		for si, a := range arts {
			r, err := a.Prog.Exec(&ir.Env{State: states[si], Pkt: p})
			if err != nil {
				return nil, fmt.Errorf("reference: packet %d: %s: %w", i, a.Name, err)
			}
			if r.Action != ir.ActionSent {
				sent = false
				break
			}
		}
		out[i] = fateOf(sent, p)
	}
	return out, nil
}

// engineFates feeds the packets through a one-worker session.
func engineFates(tr *traffic, arts []*gallium.Artifacts, pkts []*packet.Packet) ([]fate, error) {
	out := make([]fate, len(pkts))
	seen := make([]bool, len(pkts))
	var mu sync.Mutex
	sess, err := openSession(arts, tr, 1, func(d gallium.Delivery) {
		f := fateOf(d.Delivered, d.Pkt)
		mu.Lock()
		defer mu.Unlock()
		if d.Seq >= 0 && d.Seq < int64(len(out)) {
			out[d.Seq], seen[d.Seq] = f, true
		}
	})
	if err != nil {
		return nil, err
	}
	feedErr := sess.Feed(&feed{pkts: pkts, gap: tr.gapNs})
	rep, err := sess.Close()
	if feedErr != nil {
		return nil, feedErr
	}
	if err != nil {
		return nil, err
	}
	if s := rep.Stats; s.Injected != len(pkts) || s.QueueDrops != 0 {
		return nil, fmt.Errorf("engine: %d of %d packets injected, %d queue drops", s.Injected, len(pkts), s.QueueDrops)
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("engine: no delivery reported for packet %d", i)
		}
	}
	return out, nil
}

// compareFates records the first differing packet and the count.
func compareFates(out *outcome, leg string, want, got []fate) {
	bad, first := 0, -1
	for i := range want {
		if want[i] != got[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	out.check(bad == 0, "%s: %d of %d packets differ from the reference interpreter (first: packet %d)",
		leg, bad, len(want), first)
}
