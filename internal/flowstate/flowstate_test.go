package flowstate

import (
	"reflect"
	"testing"
	"time"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// conns is the tracked table's declaration; State's access methods
// take the resolved global.
var conns = &ir.Global{Name: "conns", Kind: ir.KindMap}

func newState(tables ...string) *ir.State {
	st := &ir.State{
		Maps:    map[string]map[ir.MapKey][]uint64{},
		Vecs:    map[string][]uint64{},
		Globals: map[string]uint64{},
	}
	for _, n := range tables {
		st.Maps[n] = map[ir.MapKey][]uint64{}
	}
	return st
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"good", Config{Capacity: 100}, true},
		{"zero capacity", Config{}, false},
		{"negative capacity", Config{Capacity: -1}, false},
		{"negative timeout", Config{Capacity: 1, UDPTimeout: -time.Second}, false},
		{"negative tcp", Config{Capacity: 1, TCPTimeouts: TCPTimeouts{Syn: -1}}, false},
		{"syn exceeds established", Config{Capacity: 1,
			TCPTimeouts: TCPTimeouts{Syn: time.Hour, Established: time.Minute}}, false},
		{"fin exceeds established", Config{Capacity: 1,
			TCPTimeouts: TCPTimeouts{Fin: time.Hour, Established: time.Minute}}, false},
		{"unknown policy", Config{Capacity: 1, EvictPolicy: EvictPolicy(7)}, false},
		{"explicit none policy", Config{Capacity: 1, EvictPolicy: EvictNone}, true},
		{"barrier-only sweeps", Config{Capacity: 1, SweepEvery: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("want error, got nil")
			}
		})
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := Config{Capacity: 10}.Normalized()
	want := Config{
		Capacity: 10,
		TCPTimeouts: TCPTimeouts{
			Syn: DefaultSynTimeout, Established: DefaultEstablishedTimeout, Fin: DefaultFinTimeout,
		},
		UDPTimeout: DefaultUDPTimeout,
		SweepEvery: DefaultSweepEvery,
		SweepLimit: DefaultSweepLimit,
	}
	if n != want {
		t.Fatalf("Normalized = %+v, want %+v", n, want)
	}
	// Barrier-only sweeping survives normalization.
	if got := (Config{Capacity: 1, SweepEvery: -1}).Normalized().SweepEvery; got != -1 {
		t.Fatalf("negative SweepEvery normalized to %d, want -1", got)
	}
}

func TestShardSplitsCapacity(t *testing.T) {
	c := Config{Capacity: 10}
	if got := c.Shard(1).Capacity; got != 10 {
		t.Fatalf("1 worker: %d, want 10", got)
	}
	if got := c.Shard(4).Capacity; got != 3 { // ceil(10/4)
		t.Fatalf("4 workers: %d, want 3", got)
	}
	if got := c.Shard(3).Capacity; got != 4 { // ceil(10/3)
		t.Fatalf("3 workers: %d, want 4", got)
	}
}

func TestClassOf(t *testing.T) {
	tcp := func(flags uint8) *packet.Packet {
		p := &packet.Packet{HasTCP: true}
		p.TCP.Flags = flags
		return p
	}
	cases := []struct {
		name string
		p    *packet.Packet
		want Class
	}{
		{"nil", nil, ClassOther},
		{"syn", tcp(packet.TCPFlagSYN), ClassTCPSyn},
		{"syn-ack", tcp(packet.TCPFlagSYN | packet.TCPFlagACK), ClassTCPEst},
		{"ack", tcp(packet.TCPFlagACK), ClassTCPEst},
		{"fin", tcp(packet.TCPFlagFIN | packet.TCPFlagACK), ClassTCPFin},
		{"rst", tcp(packet.TCPFlagRST), ClassTCPFin},
		{"udp", &packet.Packet{HasUDP: true}, ClassUDP},
		{"bare ip", &packet.Packet{}, ClassOther},
	}
	for _, tc := range cases {
		if got := ClassOf(tc.p); got != tc.want {
			t.Errorf("%s: ClassOf = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestParseEvictPolicy(t *testing.T) {
	if p, ok := ParseEvictPolicy("lru"); !ok || p != EvictLRU {
		t.Fatalf("lru: %v %v", p, ok)
	}
	if p, ok := ParseEvictPolicy("none"); !ok || p != EvictNone {
		t.Fatalf("none: %v %v", p, ok)
	}
	if _, ok := ParseEvictPolicy("fifo"); ok {
		t.Fatalf("fifo parsed")
	}
}

// TestSweepExpiry: entries idle past their class timeout are removed;
// fresh ones survive. The stamping rides State.MapInsert/MapFind.
func TestSweepExpiry(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})

	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	st.MapInsert(conns, ir.MakeMapKey(1), []uint64{1})
	st.NowNs = int64(25 * time.Second)
	st.MapInsert(conns, ir.MakeMapKey(2), []uint64{2})

	// At t=31s key 1 is 31s idle (expired), key 2 is 6s idle (alive).
	rm := tr.Sweep(int64(31*time.Second), true)
	if len(rm) != 1 || rm[0].Key != ir.MakeMapKey(1) || rm[0].Evicted {
		t.Fatalf("removals = %+v, want timeout of key 1", rm)
	}
	if _, ok := st.Maps["conns"][ir.MakeMapKey(2)]; !ok {
		t.Fatalf("fresh entry swept")
	}
	s := tr.Stats()
	if s.Expired != 1 || s.Evicted != 0 || s.Occupancy != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSweepTouchRefreshes: a MapFind hit re-stamps the entry, deferring
// expiry.
func TestSweepTouchRefreshes(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})

	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	st.MapInsert(conns, ir.MakeMapKey(1), []uint64{1})
	st.NowNs = int64(20 * time.Second)
	st.MapFind(conns, ir.MakeMapKey(1)) // hit refreshes the stamp

	if rm := tr.Sweep(int64(40*time.Second), true); len(rm) != 0 {
		t.Fatalf("refreshed entry expired: %+v", rm)
	}
	if rm := tr.Sweep(int64(51*time.Second), true); len(rm) != 1 {
		t.Fatalf("idle entry survived: %+v", rm)
	}
}

// TestSweepClassTimeouts: half-open TCP expires on the SYN timeout while
// an established flow of the same age survives.
func TestSweepClassTimeouts(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100}, st, []string{"conns"}) // defaults: syn 5s, est 5m

	st.NowNs = 0
	st.Class = uint8(ClassTCPSyn)
	st.MapInsert(conns, ir.MakeMapKey(1), []uint64{1})
	st.Class = uint8(ClassTCPEst)
	st.MapInsert(conns, ir.MakeMapKey(2), []uint64{2})

	rm := tr.Sweep(int64(6*time.Second), true)
	if len(rm) != 1 || rm[0].Key != ir.MakeMapKey(1) {
		t.Fatalf("removals = %+v, want half-open key 1 only", rm)
	}
	if _, ok := st.Maps["conns"][ir.MakeMapKey(2)]; !ok {
		t.Fatalf("established flow expired on SYN timeout")
	}
}

// TestSweepAdoptsUnstampedEntries: state seeded before arming carries no
// stamp; the first sweep adopts it as touched-now instead of expiring it.
func TestSweepAdoptsUnstampedEntries(t *testing.T) {
	st := newState("conns")
	st.Maps["conns"][ir.MakeMapKey(9)] = []uint64{9} // seeded pre-arming
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})

	if rm := tr.Sweep(int64(time.Hour), true); len(rm) != 0 {
		t.Fatalf("adopted entry expired immediately: %+v", rm)
	}
	// Adopted at t=1h as ClassOther; idle past UDPTimeout it now expires.
	if rm := tr.Sweep(int64(time.Hour+31*time.Second), true); len(rm) != 1 {
		t.Fatalf("adopted entry never expires: %+v", rm)
	}
}

// TestSweepLRUEviction: a full sweep over capacity evicts exactly the
// least-recently-touched entries, deterministically.
func TestSweepLRUEviction(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 2, UDPTimeout: time.Hour}, st, []string{"conns"})

	st.Class = uint8(ClassUDP)
	for i, at := range []int64{30, 10, 20, 40} { // keys 0..3 touched at these ns
		st.NowNs = at
		st.MapInsert(conns, ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	rm := tr.Sweep(50, true)
	if len(rm) != 2 {
		t.Fatalf("removals = %+v, want 2 evictions", rm)
	}
	// Oldest first: key 1 (t=10), then key 2 (t=20).
	want := []ir.MapKey{ir.MakeMapKey(1), ir.MakeMapKey(2)}
	got := []ir.MapKey{rm[0].Key, rm[1].Key}
	if !reflect.DeepEqual(got, want) || !rm[0].Evicted || !rm[1].Evicted {
		t.Fatalf("evicted %+v, want %+v (oldest first)", rm, want)
	}
	s := tr.Stats()
	if s.Evicted != 2 || s.Occupancy != 2 || s.Peak != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSweepEvictNone: EvictNone reports occupancy above capacity without
// removing anything.
func TestSweepEvictNone(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 1, UDPTimeout: time.Hour, EvictPolicy: EvictNone},
		st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	for i := 0; i < 5; i++ {
		st.MapInsert(conns, ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	if rm := tr.Sweep(1, true); len(rm) != 0 {
		t.Fatalf("EvictNone removed entries: %+v", rm)
	}
	if s := tr.Stats(); s.Occupancy != 5 {
		t.Fatalf("occupancy = %d, want 5", s.Occupancy)
	}
}

// TestIncrementalSweepBudget: an incremental sweep examines at most
// SweepLimit entries per call but converges over repeated calls.
func TestIncrementalSweepBudget(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 1000, UDPTimeout: time.Second, SweepLimit: 10},
		st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	for i := 0; i < 100; i++ {
		st.MapInsert(conns, ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	now := int64(2 * time.Second) // everything is stale
	if rm := tr.Sweep(now, false); len(rm) > 10 {
		t.Fatalf("incremental sweep removed %d entries, budget 10", len(rm))
	}
	total := tr.Stats().Expired
	for i := 0; i < 100 && total < 100; i++ {
		tr.Sweep(now, false)
		total = tr.Stats().Expired
	}
	if total != 100 {
		t.Fatalf("incremental sweeps expired %d of 100", total)
	}
}

// TestSetConfigPreservesCounters: live retune keeps the counters and
// applies the new timeouts.
func TestSetConfigPreservesCounters(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 10, UDPTimeout: time.Second}, st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	st.MapInsert(conns, ir.MakeMapKey(1), []uint64{1})
	tr.Sweep(int64(2*time.Second), true)
	if tr.Stats().Expired != 1 {
		t.Fatalf("setup sweep: %+v", tr.Stats())
	}

	tr.SetConfig(Config{Capacity: 10, UDPTimeout: time.Hour})
	st.NowNs = int64(3 * time.Second)
	st.MapInsert(conns, ir.MakeMapKey(2), []uint64{2})
	if rm := tr.Sweep(int64(10*time.Second), true); len(rm) != 0 {
		t.Fatalf("entry expired under retuned 1h timeout: %+v", rm)
	}
	if s := tr.Stats(); s.Expired != 1 {
		t.Fatalf("retune lost counters: %+v", s)
	}
}

func TestStateCloneCarriesLifecycle(t *testing.T) {
	st := newState("conns")
	NewTracker(Config{Capacity: 10}, st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	st.NowNs = 7
	st.MapInsert(conns, ir.MakeMapKey(1), []uint64{1})

	cl := st.Clone()
	if cl.LastTouch["conns"][ir.MakeMapKey(1)] != 7 {
		t.Fatalf("clone lost last-touch stamp")
	}
	cl.LastTouch["conns"][ir.MakeMapKey(1)] = 99
	if st.LastTouch["conns"][ir.MakeMapKey(1)] != 7 {
		t.Fatalf("clone aliases the original's stamps")
	}
}
