package switchsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gallium/internal/ir"
)

// Per-shard control-plane lanes: the switch's one §4.3.3 write-back
// state machine.
//
// A lane's pending set is the write-back table: StageShard records an
// insert or delete there, invisible to every lookup. FlipShard's single
// pointer store is the visibility bit: it publishes the pending set as
// the lane's immutable view, which the shard's own data-plane lookups
// consult before the main tables. The fold into the main tables is the
// lazy merge: CompactShard folds a view once it outgrows the sqrt
// amortization threshold (at every flip for a §7 cache table, so FIFO
// eviction bounds what the data plane serves), and FoldShards folds every
// lane at a quiescent point. The engine runs one lane per worker shard,
// so drainers stage and flip on their own mutex and view pointer without
// convoying on the switch-wide control-plane mutex; the sequential
// testbed is a one-lane switch that folds at every flip.
//
// Visibility semantics: a lane's flipped entries are visible to lookups
// that pass the lane's shard index (ProcessPreShard/ProcessPostShard)
// the moment FlipShard publishes them, and to every other shard only
// after the lane folds into the main tables. Flow affinity makes that
// exact where it matters: a flow's write-backs are staged by its own
// shard's drainer and looked up by its own shard's worker, so a flow
// still never observes the switch missing its own earlier write-back.
// Cross-shard visibility widens from "until the next flip" to "until the
// next fold", which is the same benign stale window the engine already
// documents — a shard that misses another shard's entry takes the slow
// path, where its own authoritative server state answers.
//
// Global-scope updates (registers, vectors, whole-table Replace, seeding,
// reconfiguration purges) go through StageWriteback, whose table part
// stages into a pending set of the same laneTable type under the same
// admission rule; FlipVisibility folds that set straight into the main
// tables inside its one snapshot publish.
//
// Capacity across lanes is enforced approximately: a lane admits an
// insert while (main size + its own lane-resident entries) is under the
// table's capacity, so concurrent lanes can transiently overshoot by at
// most (shards-1) merge thresholds before a fold re-synchronizes.
// ErrTableFull is a soft failure everywhere, so the overshoot trades a
// hard cross-lane count (which would re-serialize every drainer on one
// counter) for bounded slack.

// ctlLane is one shard's control-plane lane. The hot fields are padded
// to cache-line boundaries so two shards' lanes never share a line —
// each lane's mutex and view pointer are written by exactly one drainer
// and read by exactly one worker.
type ctlLane struct {
	_  [64]byte
	mu sync.Mutex
	// pending holds staged-but-invisible updates by global ID
	// (drainer-side, under mu); nil until the lane first stages.
	pending []*laneTable
	// view is the published, immutable overlay the shard's data-plane
	// lookups consult before the main tables.
	view atomic.Pointer[laneOverlay]
	// stats are this lane's activity counters; Stats() sums them across
	// lanes so the per-packet hot path never contends on shared atomics.
	stats laneStats
	_     [64]byte
}

// laneStats are one lane's data-plane and staging counters, padded so
// adjacent lanes' counter blocks never false-share.
type laneStats struct {
	_                                                  [64]byte
	prePackets, postPackets, fastPath, toServer, punts atomic.Int64
	drops, stepsTotal                                  atomic.Int64
	ctlOps, ctlFlips, expired                          atomic.Int64
	_                                                  [64]byte
}

// laneOverlay is one lane's published view: immutable once stored, like
// the global snapshot. tables is indexed by global ID (nil where the
// lane holds nothing for a table).
type laneOverlay struct {
	tables []*laneTable
}

// laneTable is one table's write-back set — a lane's pending or
// published overlay, or the global staging of StageWriteback: staged
// inserts plus staged deletions, mutually exclusive per key (last writer
// wins within a window).
type laneTable struct {
	wb  map[ir.MapKey][]uint64
	del map[ir.MapKey]bool
}

func newLaneTable() *laneTable {
	return &laneTable{wb: map[ir.MapKey][]uint64{}, del: map[ir.MapKey]bool{}}
}

// pendingTable returns (*set)[id], allocating the set and the table on
// first use.
func pendingTable(set *[]*laneTable, n, id int) *laneTable {
	if *set == nil {
		*set = make([]*laneTable, n)
	}
	if (*set)[id] == nil {
		(*set)[id] = newLaneTable()
	}
	return (*set)[id]
}

// stageInto records u in pending after the capacity admission rule: an
// insert into a full non-cached table is refused unless its key is
// already resident. Occupancy counts the main table, the caller's
// published lane view (nil for the global staging) and pending's inserts.
func stageInto(st *snapTable, view *laneOverlay, pending *laneTable, id int, u Update) error {
	if u.Delete {
		pending.del[u.Key] = true
		delete(pending.wb, u.Key)
		return nil
	}
	if st.capacity > 0 && !st.cached {
		occupied := len(st.main) + view.size(id) + len(pending.wb)
		if occupied >= st.capacity && !keyAdmitted(st, view, pending, id, u.Key) {
			return fmt.Errorf("%w: %q (%d entries)", ErrTableFull, u.Table, st.capacity)
		}
	}
	pending.wb[u.Key] = append([]uint64(nil), u.Vals...)
	delete(pending.del, u.Key)
	return nil
}

// keyAdmitted reports whether key is already resident somewhere the
// stager can see (so overwriting it cannot grow the table).
func keyAdmitted(st *snapTable, view *laneOverlay, pending *laneTable, id int, key ir.MapKey) bool {
	if _, ok := pending.wb[key]; ok {
		return true
	}
	if _, hit, _ := view.lookup(id, key); hit {
		return true
	}
	_, hit := st.main[key]
	return hit
}

// lookup resolves a key against the lane overlay: a staged deletion
// shadows the main tables; a staged insert hits.
func (ov *laneOverlay) lookup(id int, key ir.MapKey) (vals []uint64, hit, deleted bool) {
	if ov == nil {
		return nil, false, false
	}
	lt := ov.tables[id]
	if lt == nil {
		return nil, false, false
	}
	if lt.del[key] {
		return nil, false, true
	}
	v, ok := lt.wb[key]
	return v, ok, false
}

// size reports the overlay's entry count for one table.
func (ov *laneOverlay) size(id int) int {
	if ov == nil {
		return 0
	}
	lt := ov.tables[id]
	if lt == nil {
		return 0
	}
	return len(lt.wb) + len(lt.del)
}

// ConfigureShards sizes the switch for n per-shard control-plane lanes
// (n <= 1 keeps the single default lane). It must be called before any
// concurrent traffic — the engine calls it at construction; lanes cannot
// be resized while drainers run.
func (sw *Switch) ConfigureShards(n int) {
	if n < 1 {
		n = 1
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	lanes := make([]*ctlLane, n)
	for i := range lanes {
		lanes[i] = &ctlLane{}
	}
	sw.lanes = lanes
}

// LaneEligible reports whether an update may ride a per-shard lane:
// plain table inserts and deletes (the steady-state slow path). Register
// writes, vector swaps, and whole-table replacements carry global
// semantics and must go through StageWriteback + FlipVisibility.
func LaneEligible(u Update) bool {
	return u.Table != "" && !u.Replace && u.Register == "" && u.Vec == ""
}

// StageShard stages one lane-eligible update into shard's lane, invisible
// until FlipShard. Unlike StageWriteback it takes only the lane's own
// mutex — concurrent shards stage without serializing on each other.
func (sw *Switch) StageShard(shard int, u Update) error {
	if !LaneEligible(u) {
		return fmt.Errorf("switchsim: update for table %q is not lane-eligible", u.Table)
	}
	if shard < 0 || shard >= len(sw.lanes) {
		return fmt.Errorf("switchsim: shard %d out of range (%d lanes)", shard, len(sw.lanes))
	}
	g, ok := sw.global(u.Table, ir.KindMap)
	if !ok {
		return fmt.Errorf("switchsim: table %q not resident", u.Table)
	}
	st := sw.snap.Load().tables[g.ID]
	ln := sw.lanes[shard]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.stats.ctlOps.Add(1)
	sw.c.ctlOps.Inc()
	sw.c.ctlStaged.Inc()
	if u.Delete && u.Expire {
		ln.stats.expired.Add(1)
		sw.c.expired.Inc()
	}
	return stageInto(st, ln.view.Load(), pendingTable(&ln.pending, len(sw.tables), g.ID), g.ID, u)
}

// FlipShard publishes shard's staged lane updates in one atomic store —
// the per-shard §4.3.3 visibility flip. Lookups from this shard pinned
// the previous view see none of the batch; lookups after see all of it.
func (sw *Switch) FlipShard(shard int) {
	if shard < 0 || shard >= len(sw.lanes) {
		return
	}
	ln := sw.lanes[shard]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if len(ln.pending) == 0 {
		return
	}
	ln.stats.ctlFlips.Add(1)
	ln.stats.ctlOps.Add(1)
	sw.c.ctlFlips.Inc()
	sw.c.ctlOps.Inc()
	old := ln.view.Load()
	nv := &laneOverlay{tables: make([]*laneTable, len(sw.tables))}
	if old != nil {
		for id, lt := range old.tables {
			if lt == nil {
				continue
			}
			c := newLaneTable()
			for k, v := range lt.wb {
				c.wb[k] = v
			}
			for k := range lt.del {
				c.del[k] = true
			}
			nv.tables[id] = c
		}
	}
	for id, pend := range ln.pending {
		if pend == nil {
			continue
		}
		c := nv.tables[id]
		if c == nil {
			c = newLaneTable()
			nv.tables[id] = c
		}
		for k, v := range pend.wb {
			c.wb[k] = v
			delete(c.del, k)
		}
		for k := range pend.del {
			c.del[k] = true
			delete(c.wb, k)
		}
	}
	ln.view.Store(nv)
	ln.pending = nil
	sw.gEpoch.Set(int64(sw.epoch.Add(1)))
}

// CompactShard folds shard's lane into the main tables once one of its
// published tables is due: a §7 cache table at every flip, so FIFO
// eviction bounds what the data plane serves, and any other table once
// its overlay outgrows the sqrt amortization threshold. The whole lane
// folds, so a batch that spans tables reaches other shards atomically.
// The fold takes the global control-plane mutex (it publishes a fresh
// snapshot), but without cache tables it runs only once per ~sqrt(main)
// staged entries, so lanes stay independent in the steady state.
func (sw *Switch) CompactShard(shard int) {
	if shard < 0 || shard >= len(sw.lanes) {
		return
	}
	ln := sw.lanes[shard]
	ov, tables := ln.view.Load(), sw.snap.Load().tables
	need := false
	for id, st := range tables {
		if n := ov.size(id); st != nil && n > 0 && (st.cached || n >= mergeThreshold(len(st.main))) {
			need = true
			break
		}
	}
	if !need {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.foldLaneLocked(ln) {
		sw.publishLocked()
	}
}

// FoldShards folds every lane's overlay (published and pending) into the
// main tables and publishes once. The testbed calls it after every flip;
// the engine at quiescent points — before staging a reconfiguration (so
// stale lane entries cannot shadow the reconfig's staged deletions) and
// at Stop (so the final table contents are consolidated and exact).
// Callers must ensure no drainer is concurrently staging; the locks make
// the fold safe, but only quiescence makes "one visibility flip" mean
// anything.
func (sw *Switch) FoldShards() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	changed := false
	for _, ln := range sw.lanes {
		changed = sw.foldLaneLocked(ln) || changed
	}
	if changed {
		sw.publishLocked()
	}
}

// foldLaneLocked folds one lane's view and pending overlays into the main
// tables. Callers hold sw.mu and publish afterwards.
func (sw *Switch) foldLaneLocked(ln *ctlLane) bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	changed := false
	for _, src := range [][]*laneTable{viewTables(ln.view.Load()), ln.pending} {
		for id, lt := range src {
			changed = sw.foldLocked(id, lt) || changed
		}
	}
	ln.view.Store(nil)
	ln.pending = nil
	return changed
}

// laneTableEntries sums the net lane-resident contribution to one
// table's visible entry count, resolving duplicate keys across lanes
// deterministically (first lane wins — lanes are consulted per shard,
// so a cross-lane duplicate is already a program without flow affinity).
// Callers hold sw.mu (any mode).
func (sw *Switch) laneTableEntries(id int, t *Table) int {
	add := 0
	var seen map[ir.MapKey]bool
	for _, ln := range sw.lanes {
		ln.mu.Lock()
		for _, src := range [][]*laneTable{ln.pending, viewTables(ln.view.Load())} {
			if src == nil || src[id] == nil {
				continue
			}
			lt := src[id]
			for k := range lt.wb {
				if seen[k] {
					continue
				}
				if seen == nil {
					seen = map[ir.MapKey]bool{}
				}
				seen[k] = true
				if _, visible := t.Main[k]; !visible {
					add++
				}
			}
			for k := range lt.del {
				if seen[k] {
					continue
				}
				if seen == nil {
					seen = map[ir.MapKey]bool{}
				}
				seen[k] = true
				if _, visible := t.Main[k]; visible {
					add--
				}
			}
		}
		ln.mu.Unlock()
	}
	return add
}

// viewTables unwraps an overlay's tables (nil-safe).
func viewTables(ov *laneOverlay) []*laneTable {
	if ov == nil {
		return nil
	}
	return ov.tables
}
