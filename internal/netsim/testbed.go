package netsim

import (
	"fmt"
	"math"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// Mode selects the deployment under test. The zero Mode is "unset": it
// defaults to Offloaded when a testbed or engine is built from it, and is
// what ParseMode returns alongside an error — so an ignored parse error
// can never be mistaken for an explicit mode choice.
type Mode int

// Deployment modes.
const (
	// Offloaded runs the Gallium-compiled switch+server pair.
	Offloaded Mode = iota + 1
	// Software runs the unpartitioned middlebox on the server (the
	// FastClick baseline), with the switch as a plain forwarder.
	Software
)

// String implements fmt.Stringer for flag defaults and error messages.
func (m Mode) String() string {
	switch m {
	case Offloaded:
		return "offloaded"
	case Software:
		return "software"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes one testbed instance.
type Config struct {
	Model CostModel
	Mode  Mode
	// Cores is the middlebox server core count (the baseline sweeps 1/2/4;
	// the offloaded middlebox uses a single core, as in the paper).
	Cores int
	// Res is required in Offloaded mode.
	Res *partition.Result
	// Prog is required in Software mode.
	Prog *ir.Program
	// Setup seeds middlebox state.
	Setup func(st *ir.State)
	// Obs, when non-nil, receives metrics from every component and (when
	// tracing is enabled on it) per-packet hop traces. Nil disables
	// observability at zero cost.
	Obs *obs.Registry
}

// Delivery reports one packet's fate.
type Delivery struct {
	// Delivered is true when the packet reached the destination host.
	Delivered bool
	// MBDropped means the middlebox's logic dropped it (e.g. firewall).
	MBDropped bool
	// QueueDropped means the server ingress queue overflowed.
	QueueDropped bool
	// FastPath means the switch handled it without the server.
	FastPath bool
	// Time the packet reached the destination (ns).
	DeliverNs int64
	// LatencyNs is end-to-end (application to application).
	LatencyNs int64
}

// Stats aggregates a run.
type Stats struct {
	Injected   int
	Delivered  int
	MBDrops    int
	QueueDrops int
	FastPath   int
	SlowPath   int
	// CtlRejected counts control-plane updates refused because the
	// switch table was full; the flows stay server-handled.
	CtlRejected  int
	BytesIn      int64
	BytesOut     int64
	ServerCycles float64
	CtlBatches   int
	CtlOps       int
	// FirstDeliverNs/LastDeliverNs frame the measurement window.
	FirstDeliverNs, LastDeliverNs int64
}

// ThroughputBps is delivered goodput over the delivery window.
func (s Stats) ThroughputBps() float64 {
	if s.LastDeliverNs <= s.FirstDeliverNs {
		return 0
	}
	return float64(s.BytesOut) * 8 / (float64(s.LastDeliverNs-s.FirstDeliverNs) / 1e9)
}

// Testbed is the packet-level simulator: a time-ordered, single-pass model
// of the Figure 1 topology. Packets must be injected in non-decreasing
// timestamp order; it drives one Lane — the datapath the concurrent engine
// runs per worker — over Config.Cores simulated server cores, staging each
// write-back when the server emits it and flipping it at its modeled
// control-plane completion time.
type Testbed struct {
	cfg Config

	sw  *switchsim.Switch
	srv *serverrt.Server
	sft *serverrt.Software

	lane       Lane
	stages     []Stage
	lastInject int64

	reg   *obs.Registry
	c     testbedCounters
	hLat  *obs.Histogram // end-to-end latency, all delivered packets
	hFast *obs.Histogram // fast-path (switch-only) subset
	hSlow *obs.Histogram // slow-path (server-visited) subset
	// tracer is resolved once at build time, like every other handle, so
	// the per-packet path never touches the registry mutex. Enable tracing
	// on the registry before constructing the testbed.
	tracer *obs.TraceRecorder
}

// testbedCounters are the end-to-end counters.
type testbedCounters struct {
	injected, delivered *obs.Counter
	mbDrops, queueDrops *obs.Counter
	ctlRejected         *obs.Counter
}

// instrument wires the registry through every component and resolves the
// testbed's own handles.
func (tb *Testbed) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	tb.reg = reg
	if tb.sw != nil {
		tb.sw.Instrument(reg)
	}
	if tb.srv != nil {
		tb.srv.Instrument(reg)
	}
	if tb.sft != nil {
		tb.sft.Instrument(reg)
	}
	tb.c = testbedCounters{
		injected:    reg.Counter("e2e.injected"),
		delivered:   reg.Counter("e2e.delivered"),
		mbDrops:     reg.Counter("e2e.mb_drops"),
		queueDrops:  reg.Counter("e2e.queue_drops"),
		ctlRejected: reg.Counter("e2e.ctl_rejected"),
	}
	tb.hFast = reg.Histogram("e2e.latency_ns.fast", nil)
	tb.hSlow = reg.Histogram("e2e.latency_ns.slow", nil)
	// Every delivered packet is either fast or slow, so the all-packets
	// histogram is a read-time merge — one observation per delivery.
	tb.hLat = reg.MergedHistogram("e2e.latency_ns", tb.hFast, tb.hSlow)
	tb.tracer = reg.Tracer()
	o := &tb.lane.o
	o.stalled = reg.Counter("switch.ctl.stalled_packets")
	o.wait = reg.Histogram("server.queue.wait_ns", nil)
	// The output-commit stall: time a packet is held past server
	// completion waiting for its write-back batch to flip (§4.3.3).
	o.stall = reg.Histogram("switch.ctl.stall_ns", nil)
	for i := range tb.lane.coreFreeNs {
		o.corePkts = append(o.corePkts, reg.Counter(fmt.Sprintf("core.%d.packets", i)))
		o.coreBusy = append(o.coreBusy, reg.Counter(fmt.Sprintf("core.%d.busy_ns", i)))
	}
}

// traceStart opens a hop trace for the packet if the registry has tracing
// enabled and capacity left.
func (tb *Testbed) traceStart(tNs int64, pkt *packet.Packet) *obs.Trace {
	if tb.tracer == nil {
		return nil
	}
	summary := "packet"
	if tup, ok := pkt.Tuple(); ok {
		summary = tup.String()
	}
	tr := tb.tracer.Start(summary)
	tr.Hop("inject", tNs)
	return tr
}

// NewTestbed builds and configures a testbed.
func NewTestbed(cfg Config) (*Testbed, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Mode == 0 {
		cfg.Mode = Offloaded
	}
	tb := &Testbed{cfg: cfg}
	switch cfg.Mode {
	case Offloaded:
		if cfg.Res == nil {
			return nil, fmt.Errorf("netsim: offloaded mode needs a partition result")
		}
		tb.sw = switchsim.New(cfg.Res)
		tb.srv = serverrt.New(cfg.Res)
		if cfg.Setup != nil {
			cfg.Setup(tb.srv.State)
			if err := tb.sw.SeedFrom(tb.srv.State); err != nil {
				return nil, err
			}
		}
	case Software:
		if cfg.Prog == nil {
			return nil, fmt.Errorf("netsim: software mode needs a program")
		}
		tb.sft = serverrt.NewSoftware(cfg.Prog)
		if cfg.Setup != nil {
			cfg.Setup(tb.sft.State)
		}
	default:
		return nil, fmt.Errorf("netsim: unknown mode %v", cfg.Mode)
	}
	tb.lane = NewLane(cfg.Model, 0, cfg.Cores, 0, tb.commit)
	tb.stages = []Stage{{Sw: tb.sw, Srv: tb.srv, Sft: tb.sft}}
	tb.instrument(cfg.Obs)
	return tb, nil
}

// reject accounts full-table rejections.
func (tb *Testbed) reject(n int) {
	tb.lane.Stats.CtlRejected += n
	tb.c.ctlRejected.Add(uint64(n))
}

// commit is the testbed's write-back hook: the batch is staged now
// (invisible) on the switch's one lane, and its flip scheduled at the
// modeled control-plane completion time. Output commit holds a
// synchronous batch's packet until the flip (§4.3.3); a full table is a
// soft failure — that entry simply never reaches the switch. A punt batch
// was classified by the walk against this same switch state, so it
// stages as it is.
func (tb *Testbed) commit(wb Writeback) (int64, error) {
	lane, global, rejected, err := StageBatch(tb.sw, tb.lane.id, wb.Updates, false)
	tb.reject(rejected)
	tb.lane.global = tb.lane.global || global > 0
	staged := lane + global
	if err != nil || staged == 0 {
		return wb.DoneNs, err
	}
	tb.lane.Stats.CtlOps += staged
	flipAt := wb.DoneNs + int64(tb.cfg.Model.CtlBatchNs(staged))
	tb.lane.flips = append(tb.lane.flips, flipAt)
	if !wb.Sync {
		return wb.DoneNs, nil
	}
	return flipAt, nil
}

// Reconfigure applies one control-plane change to the sequential testbed
// between injections: mutate runs against the authoritative server state
// (returning any extra switch updates, e.g. connection purges), then the
// given updates plus mutate's are applied as one batch through the
// package-level Reconfigure the engine also uses — differential tests
// apply the same change at the same packet index on both sides. Any
// write-back still awaiting its scheduled flip lands first (a sequential
// reconfiguration quiesces the deployment).
func (tb *Testbed) Reconfigure(mutate func(st *ir.State) []switchsim.Update, updates []switchsim.Update) error {
	all := append([]switchsim.Update(nil), updates...)
	if mutate != nil {
		all = append(all, mutate(tb.ServerState())...)
	}
	if tb.sw == nil {
		return nil
	}
	_, rejected, err := Reconfigure(tb.sw, all)
	tb.reject(rejected)
	if err != nil {
		return err
	}
	tb.lane.Stats.CtlBatches++
	tb.lane.flips, tb.lane.global = tb.lane.flips[:0], false
	return nil
}

// Settle applies every scheduled write-back flip now, as if the control
// plane had caught up: the sequential counterpart of the engine's
// stop-time fold. A packet whose write-back does not stall it (a §7
// cache fill) leaves its flip pending past delivery; read switch tables
// and counters after Settle to see its effect.
func (tb *Testbed) Settle() {
	if tb.sw != nil {
		tb.lane.applyFlips(tb.sw, math.MaxInt64)
	}
}

// Inject runs one packet through the testbed, starting from the source
// application at time tNs. Packets must arrive in time order.
func (tb *Testbed) Inject(tNs int64, pkt *packet.Packet) (Delivery, error) {
	if tNs < tb.lastInject {
		return Delivery{}, fmt.Errorf("netsim: out-of-order injection (%d < %d)", tNs, tb.lastInject)
	}
	tb.lastInject = tNs
	tb.c.injected.Inc()
	tr := tb.traceStart(tNs, pkt)
	tb.lane.trace = tr
	d, err := tb.lane.Run(tNs, pkt, tb.stages)
	if err != nil {
		return Delivery{}, err
	}
	switch {
	case d.QueueDropped:
		tb.c.queueDrops.Inc()
	case d.MBDropped:
		tb.c.mbDrops.Inc()
	case tb.reg != nil:
		tb.c.delivered.Inc()
		// hLat is the read-time merge of the two, so one observation
		// covers both views.
		if d.FastPath {
			tb.hFast.Observe(d.LatencyNs)
		} else {
			tb.hSlow.Observe(d.LatencyNs)
		}
	}
	if tr != nil && d.Delivered { // guard: the Sprintf must not run on the untraced path
		tr.Hop("deliver", d.DeliverNs).SetNote(fmt.Sprintf("latency %.2fµs", float64(d.LatencyNs)/1000))
	}
	return d, nil
}

// Stats returns the run counters so far.
func (tb *Testbed) Stats() Stats { return tb.lane.Stats }

// ServerState exposes the authoritative middlebox state: the server's in
// offloaded mode, the software runner's otherwise. Callers must not
// mutate it while injections are in flight.
func (tb *Testbed) ServerState() *ir.State {
	if tb.srv != nil {
		return tb.srv.State
	}
	if tb.sft != nil {
		return tb.sft.State
	}
	return nil
}

// SwitchStats exposes the switch counters (offloaded mode only).
func (tb *Testbed) SwitchStats() (switchsim.Stats, bool) {
	if tb.sw == nil {
		return switchsim.Stats{}, false
	}
	return tb.sw.Stats(), true
}

// rssHash steers a packet to a server core, keeping both directions of a
// connection together (symmetric hash), like NIC RSS.
func rssHash(pkt *packet.Packet) uint64 {
	if tup, ok := pkt.DispatchTuple(); ok {
		return tup.SymmetricHash()
	}
	return uint64(pkt.IP.SrcIP) * 2654435761
}

// RSSShard maps a packet to one of n shards the way NIC RSS steers flows
// to cores: a symmetric flow hash, so both directions of a connection land
// on the same shard. The testbed's core model and the concurrent engine's
// dispatcher share this function — a flow is served by the same (simulated
// or real) core in either world.
func RSSShard(pkt *packet.Packet, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rssHash(pkt) % uint64(n))
}
