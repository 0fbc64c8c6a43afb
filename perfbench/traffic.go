package main

import (
	"fmt"
	"math/rand"
	"time"

	"gallium"
	"gallium/internal/packet"
)

const (
	packetSize = 64
	// groupFlows is how many churn flows are interleaved: each group
	// sends groupFlows SYNs, then three rounds of groupFlows ACKs.
	groupFlows = 32
	// churnChunkFlows is how many fresh flows one churn chunk opens.
	churnChunkFlows = 2048
	// reconfigEvery is the number of chain packets between two pool
	// changes.
	reconfigEvery = 16384
)

// traffic is one packet workload's generated inputs: the middleboxes it
// runs, the flows it announces, the packets that open its long-lived
// flows during set-up, and one chunk of packet templates that is
// restored into a fixed set of packets before every timed chunk.
type traffic struct {
	name    string
	mbs     []string
	workers int
	// flows are announced to the scenario seeding (firewall whitelist).
	flows []packet.FiveTuple
	// open holds the flow-opening packets fed during set-up.
	open []packet.Packet
	// tmpl is one chunk of packet templates.
	tmpl []packet.Packet
	// churn patches a fresh block of flows into every chunk.
	churn bool
	// salt and mul scramble churn flow numbers into addresses (mul is odd,
	// so the mapping is a bijection on 24 bits).
	salt, mul uint32
	// flowTable bounds the session's flow state (churn only).
	flowTable *gallium.FlowTable
	// gapNs is the virtual time between two packets. It keeps every
	// simulated server core below saturation, so the cost model never
	// queue-drops a packet: a chained packet's slow-path trips hold its
	// worker's simulated core across the control-plane commit stall of
	// every stage, so the chain needs the widest gap.
	gapNs int64
}

// newTraffic generates the named workload's inputs from seed.
func newTraffic(name string, seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "steady":
		tr := &traffic{name: name, mbs: []string{"mazunat"}, workers: 2, gapNs: 1000}
		tr.longLived(rng, 1024, 8)
		return tr, nil
	case "chain":
		tr := &traffic{name: name, mbs: []string{"firewall", "mazunat", "l4lb"}, workers: 2, gapNs: 1_000_000}
		tr.longLived(rng, 256, 16)
		return tr, nil
	case "churn":
		tr := &traffic{
			name: name, mbs: []string{"l4lb"}, workers: 2, churn: true, gapNs: 1000,
			salt: rng.Uint32(), mul: rng.Uint32() | 1,
			// Capacity sits below the conns table's 65,536 entries and
			// the timeouts are short in virtual time, so occupancy
			// levels off at a few thousand flows within the warm-up.
			flowTable: &gallium.FlowTable{
				Capacity: 16384,
				TCPTimeouts: gallium.TCPTimeouts{
					Syn:         time.Millisecond,
					Established: 10 * time.Millisecond,
					Fin:         time.Millisecond,
				},
			},
		}
		vip := packet.MakeIPv4Addr(192, 0, 2, byte(1+rng.Intn(200)))
		dport := uint16(80 + rng.Intn(2)*363) // 80 or 443
		for g := 0; g < churnChunkFlows/groupFlows; g++ {
			for round := 0; round < 4; round++ {
				for j := 0; j < groupFlows; j++ {
					flags := uint8(packet.TCPFlagACK)
					if round == 0 {
						flags = packet.TCPFlagSYN
					}
					p := packet.BuildTCP(0, vip, 0, dport, packet.TCPOptions{Flags: flags, Seq: uint32(round)})
					p.PadTo(packetSize)
					tr.tmpl = append(tr.tmpl, *p)
				}
			}
		}
		return tr, nil
	}
	return nil, fmt.Errorf("no packet workload %q", name)
}

// longLived fills in n internal-client flows to external servers, opened
// by one SYN each, and a chunk in which every flow sends perFlow ACKs in
// a seeded order.
func (tr *traffic) longLived(rng *rand.Rand, n, perFlow int) {
	seen := map[[2]uint32]bool{}
	for len(tr.flows) < n {
		src := packet.MakeIPv4Addr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		sport := uint16(1024 + rng.Intn(60000))
		if k := [2]uint32{uint32(src), uint32(sport)}; !seen[k] {
			seen[k] = true
			tr.flows = append(tr.flows, packet.FiveTuple{
				SrcIP:   src,
				DstIP:   packet.MakeIPv4Addr(198, 51, 100, byte(1+rng.Intn(254))),
				SrcPort: sport,
				DstPort: []uint16{80, 443, 5001}[rng.Intn(3)],
				Proto:   packet.IPProtocolTCP,
			})
		}
	}
	build := func(t packet.FiveTuple, flags uint8, seq uint32) packet.Packet {
		p := packet.BuildTCP(t.SrcIP, t.DstIP, t.SrcPort, t.DstPort, packet.TCPOptions{Flags: flags, Seq: seq})
		p.PadTo(packetSize)
		return *p
	}
	for _, t := range tr.flows {
		tr.open = append(tr.open, build(t, packet.TCPFlagSYN, 0))
	}
	order := rng.Perm(n)
	for r := 0; r < perFlow; r++ {
		for _, i := range order {
			tr.tmpl = append(tr.tmpl, build(tr.flows[i], packet.TCPFlagACK, uint32(1+r*packetSize)))
		}
	}
}

// patch gives the i-th packet of churn chunk c its flow's addresses: the
// chunk opens churnChunkFlows flows never seen before in the run.
func (tr *traffic) patch(c int64, i int, p *packet.Packet) {
	g, j := i/(4*groupFlows), i%groupFlows
	f := uint32(c)*churnChunkFlows + uint32(g*groupFlows+j)
	x := ((f + tr.salt) * tr.mul) & 0xFFFFFF
	p.IP.SrcIP = packet.IPv4Addr(10<<24 | x)
	p.TCP.SrcPort = uint16(1024 + (f*7919+(tr.salt>>8))%60000)
}

// ring is the fixed set of packets a workload sends. Between timed
// chunks restore copies the templates back over it, so no packet is built
// or allocated while time is measured.
type ring struct {
	tr      *traffic
	pkts    []*packet.Packet
	resetNs int64
	resets  int
}

func newRing(tr *traffic) *ring {
	backing := make([]packet.Packet, len(tr.tmpl))
	r := &ring{tr: tr, pkts: make([]*packet.Packet, len(backing))}
	for i := range backing {
		r.pkts[i] = &backing[i]
	}
	return r
}

// restore readies the ring for chunk c (untimed; accounted as gen.reset_ms).
func (r *ring) restore(c int64) {
	t0 := time.Now()
	for i, p := range r.pkts {
		*p = r.tr.tmpl[i]
		if r.tr.churn {
			r.tr.patch(c, i, p)
		}
	}
	r.resetNs += since(t0)
	r.resets++
}

// openPackets returns fresh copies of the flow-opening packets.
func (tr *traffic) openPackets() []*packet.Packet {
	out := make([]*packet.Packet, len(tr.open))
	for i := range tr.open {
		p := tr.open[i]
		out[i] = &p
	}
	return out
}

// prefix returns fresh copies of the first n packets the workload sends:
// the flow-opening packets, then chunk 0.
func (tr *traffic) prefix(n int) []*packet.Packet {
	out := tr.openPackets()
	r := newRing(tr)
	r.restore(0)
	for _, p := range r.pkts {
		if len(out) == n {
			break
		}
		out = append(out, p)
	}
	return out
}

// feed is one chunk as an engine workload: packets in order, virtual
// times gap apart from t0. mark, when set, runs just before a packet is
// handed to the engine (latency sampling).
type feed struct {
	pkts    []*packet.Packet
	t0, gap int64
	mark    func(i int)
}

func (f *feed) Tuples() []packet.FiveTuple { return nil }

func (f *feed) Generate(emit func(tNs int64, pkt *packet.Packet) error) error {
	for i, p := range f.pkts {
		if f.mark != nil {
			f.mark(i)
		}
		if err := emit(f.t0+int64(i)*f.gap, p); err != nil {
			return err
		}
	}
	return nil
}
