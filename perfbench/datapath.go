package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gallium"
	"gallium/internal/packet"
)

const (
	// traceCompilePasses is how many traced (and as many untraced)
	// compile passes a traced run makes at least.
	traceCompilePasses = 41
	// warmUpNs is how long a session carries traffic before timing starts.
	warmUpNs = 50 * time.Millisecond
	// sampleShift: steady and churn time every 64th packet's latency.
	sampleShift = 6
	// outstanding is how many chain packets are in flight at once.
	outstanding = 2
	// stallLimit aborts a run in which no chunk completes for this long.
	stallLimit = 60 * time.Second
)

// compileSet compiles the named built-in middleboxes, verified, in order.
func compileSet(names []string) ([]*gallium.Artifacts, error) {
	arts := make([]*gallium.Artifacts, len(names))
	for i, n := range names {
		a, err := gallium.CompileBuiltin(n, gallium.Options{Verify: true})
		if err != nil {
			return nil, err
		}
		arts[i] = a
	}
	return arts, nil
}

// openSession opens the workload's session: its middleboxes (chained when
// there are several), its worker count, scenario seeding for its flows,
// its flow table, and a delivery callback.
func openSession(arts []*gallium.Artifacts, tr *traffic, workers int, onDelivery func(gallium.Delivery)) (*gallium.Session, error) {
	opts := []gallium.Option{
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithFlows(tr.flows),
		gallium.WithDeliveries(onDelivery),
	}
	if tr.flowTable != nil {
		opts = append(opts, gallium.WithFlowTable(*tr.flowTable))
	}
	if len(arts) == 1 {
		return gallium.Open(arts[0], opts...)
	}
	p, err := gallium.Chain(arts...)
	if err != nil {
		return nil, err
	}
	return p.Open(opts...)
}

// datapath drives one packet workload through a session.
type datapath struct {
	tr    *traffic
	sess  *gallium.Session
	ring  *ring
	epoch time.Time
	// fed counts the packets handed to sess: the next packet's sequence
	// number, and its virtual-time index.
	fed    int64
	chunks int64

	// Written from worker goroutines by onDelivery.
	base     atomic.Int64 // sequence number of the sampled chunk's first packet
	sentAt   []int64
	doneAt   []int64
	counting atomic.Bool
	remissMu sync.Mutex
	remiss   map[packet.FiveTuple]bool
	// The chain's closed loop: ring slot of each packet, and completions.
	slotOf map[*packet.Packet]int32
	done   chan int32
	mark   func(int)

	lat      *reservoir
	progress atomic.Int64
	// tick, when set, asks the reconfigurer for a pool change.
	tick chan struct{}
}

func newDatapath(tr *traffic) *datapath {
	d := &datapath{
		tr:     tr,
		ring:   newRing(tr),
		epoch:  time.Now(),
		remiss: map[packet.FiveTuple]bool{},
		lat:    newReservoir(1 << 19),
	}
	d.base.Store(math.MaxInt64)
	n := len(tr.tmpl)
	if tr.name == "chain" {
		d.sentAt, d.doneAt = make([]int64, n), make([]int64, n)
		d.slotOf = make(map[*packet.Packet]int32, n)
		for i, p := range d.ring.pkts {
			d.slotOf[p] = int32(i)
		}
		// One buffer slot per packet in flight: the callback never blocks.
		d.done = make(chan int32, outstanding)
	} else {
		d.sentAt, d.doneAt = make([]int64, n>>sampleShift+1), make([]int64, n>>sampleShift+1)
		d.mark = func(i int) {
			if i&(1<<sampleShift-1) == 0 {
				d.sentAt[i>>sampleShift] = since(d.epoch)
			}
		}
	}
	return d
}

// onDelivery observes every packet's fate (called from worker goroutines).
func (d *datapath) onDelivery(dl gallium.Delivery) {
	if d.slotOf != nil {
		if slot, ok := d.slotOf[dl.Pkt]; ok {
			d.doneAt[slot] = since(d.epoch)
			d.done <- slot
		}
	} else if k := dl.Seq - d.base.Load(); k >= 0 && k&(1<<sampleShift-1) == 0 && k>>sampleShift < int64(len(d.doneAt)) {
		d.doneAt[k>>sampleShift] = since(d.epoch)
	}
	if d.counting.Load() && dl.Delivered && !dl.FastPath && dl.Pkt.HasTCP && dl.Pkt.TCP.Flags&packet.TCPFlagSYN == 0 {
		d.remissMu.Lock()
		d.remiss[dl.Flow] = true
		d.remissMu.Unlock()
	}
}

// setUp closes the current session, if any, then compiles the workload's
// middleboxes, opens a session over them and opens the long-lived flows:
// everything before the session is ready for traffic. It returns the
// set-up's wall time, measured from a forced collection.
func (d *datapath) setUp() (int64, error) {
	if d.sess != nil {
		rep, err := d.sess.Close()
		if err != nil {
			return 0, err
		}
		if s := rep.Stats; s.Injected != s.Delivered+s.MBDrops+s.QueueDrops {
			return 0, fmt.Errorf("session closed with injected %d != delivered %d + mb drops %d + queue drops %d",
				s.Injected, s.Delivered, s.MBDrops, s.QueueDrops)
		}
	}
	runtime.GC()
	t0 := time.Now()
	arts, err := compileSet(d.tr.mbs)
	if err != nil {
		return 0, err
	}
	sess, err := openSession(arts, d.tr, d.tr.workers, d.onDelivery)
	if err != nil {
		return 0, err
	}
	open := d.tr.openPackets()
	if len(open) > 0 {
		if err := sess.Feed(&feed{pkts: open, gap: d.tr.gapNs}); err != nil {
			sess.Close()
			return 0, err
		}
	}
	el := since(t0)
	d.sess, d.fed, d.chunks = sess, int64(len(open)), 0
	return el, nil
}

// warmUp sends chunks, unmeasured, for warmUpNs: the flow table fills
// towards its steady occupancy and the batch controllers settle.
func (d *datapath) warmUp() error {
	for t0 := time.Now(); time.Since(t0) < warmUpNs; {
		d.next()
		if _, err := d.send(); err != nil {
			return err
		}
	}
	return nil
}

// next restores the ring for the next chunk (not measured).
func (d *datapath) next() {
	d.ring.restore(d.chunks)
	d.chunks++
}

// send sends the restored ring and returns its measured wall time.
func (d *datapath) send() (int64, error) {
	defer d.progress.Add(1)
	if d.slotOf != nil {
		return d.closedLoop()
	}
	return d.feedChunk()
}

// feedChunk feeds the ring through Session.Feed: one generator, closed
// by the engine's queue backpressure. It times every 64th packet from
// hand-off to its delivery callback.
func (d *datapath) feedChunk() (int64, error) {
	n := len(d.ring.pkts)
	clear(d.doneAt)
	d.base.Store(d.fed)
	t0 := time.Now()
	err := d.sess.Feed(&feed{pkts: d.ring.pkts, t0: d.fed * d.tr.gapNs, gap: d.tr.gapNs, mark: d.mark})
	el := since(t0)
	d.base.Store(math.MaxInt64)
	d.fed += int64(n)
	for k := 0; k<<sampleShift < n; k++ {
		if d.doneAt[k] != 0 {
			d.lat.add(float64(d.doneAt[k] - d.sentAt[k]))
		}
	}
	return el, err
}

// closedLoop sends the ring through Session.Dispatch with `outstanding`
// packets in flight: each completion's delivery callback releases the
// next packet. Every packet is timed from Dispatch to its callback.
func (d *datapath) closedLoop() (int64, error) {
	n := len(d.ring.pkts)
	t0 := time.Now()
	next, inFlight := 0, 0
	for next < n || inFlight > 0 {
		for inFlight < outstanding && next < n {
			d.sentAt[next] = since(d.epoch)
			if _, err := d.sess.Dispatch(d.fed*d.tr.gapNs, d.ring.pkts[next]); err != nil {
				return 0, err
			}
			d.fed++
			next++
			inFlight++
			if d.tick != nil && d.fed%reconfigEvery == 0 {
				select {
				case d.tick <- struct{}{}:
				default:
				}
			}
		}
		slot := <-d.done
		inFlight--
		d.lat.add(float64(d.doneAt[slot] - d.sentAt[slot]))
	}
	return since(t0), nil
}

// watch aborts the process when no chunk completes for stallLimit (a
// delivery that never arrives would otherwise hang the closed loop). The
// returned function stops the watcher and waits for it.
func (d *datapath) watch() func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		last, lastT := d.progress.Load(), time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tk.C:
				if p := d.progress.Load(); p != last {
					last, lastT = p, now
				} else if now.Sub(lastT) > stallLimit {
					fmt.Fprintf(os.Stderr, "perfbench: %s made no progress for %v\n", d.tr.name, stallLimit)
					os.Exit(1)
				}
			}
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// reconfigurer alternates the chain's load-balancer pool on request, as
// live control-plane traffic beside the data path.
type reconfigurer struct {
	sess *gallium.Session
	tick chan struct{}
	wg   sync.WaitGroup
	// wall and ctl are each change's Reconfigure and control-plane compile
	// times (ns); read them after stop.
	wall []float64
	ctl  []float64
	err  error
}

// lbPools are the two pools the chain alternates between; Drain keeps
// established connections on their backends.
var lbPools = [2]gallium.LBPoolChange{
	{At: 2, Drain: true, Backends: []gallium.Backend{
		{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 1}, {Addr: packet.MakeIPv4Addr(10, 0, 1, 2), Weight: 1},
		{Addr: packet.MakeIPv4Addr(10, 0, 1, 3), Weight: 1}, {Addr: packet.MakeIPv4Addr(10, 0, 1, 4), Weight: 1},
	}},
	{At: 2, Drain: true, Backends: []gallium.Backend{
		{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 2}, {Addr: packet.MakeIPv4Addr(10, 0, 1, 2), Weight: 1},
		{Addr: packet.MakeIPv4Addr(10, 0, 1, 5), Weight: 1},
	}},
}

// startReconfigurer serves pool changes until stop is called. ctlCompile,
// when set, additionally times the control-plane compile of each op.
func (d *datapath) startReconfigurer(ctlCompile func(gallium.ReconfigOp) error) *reconfigurer {
	rc := &reconfigurer{sess: d.sess, tick: make(chan struct{}, 1)}
	d.tick = rc.tick
	rc.wg.Add(1)
	go func() {
		defer rc.wg.Done()
		for i := 0; ; i++ {
			if _, ok := <-rc.tick; !ok {
				return
			}
			op := lbPools[i%2]
			if ctlCompile != nil && rc.err == nil {
				t0 := time.Now()
				rc.err = ctlCompile(op)
				rc.ctl = append(rc.ctl, float64(since(t0)))
			}
			t0 := time.Now()
			if err := rc.sess.Reconfigure(op); err != nil && rc.err == nil {
				rc.err = err
			}
			rc.wall = append(rc.wall, float64(since(t0)))
		}
	}()
	return rc
}

// stop ends the reconfigurer and waits for its last change.
func (rc *reconfigurer) stop(d *datapath) {
	d.tick = nil
	close(rc.tick)
	rc.wg.Wait()
}

// reservoir keeps a uniform sample of at most cap(xs) values, so latency
// bookkeeping holds the same memory whatever the packet rate.
type reservoir struct {
	xs []float64
	n  int64
	x  uint64
}

func newReservoir(size int) *reservoir {
	return &reservoir{xs: make([]float64, 0, size), x: 0x9E3779B97F4A7C15}
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, v)
		return
	}
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	if j := r.x % uint64(r.n); j < uint64(len(r.xs)) {
		r.xs[j] = v
	}
}

func (r *reservoir) reset() { r.xs, r.n = r.xs[:0], 0 }
