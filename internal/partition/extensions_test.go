package partition

import (
	"math/rand"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// fuzzPacketPair builds one deterministic random packet and its clone.
func fuzzPacketPair(seed int64, i int) (*packet.Packet, *packet.Packet) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	p := packet.BuildTCP(
		packet.IPv4Addr(rng.Intn(8)), packet.IPv4Addr(rng.Intn(8)),
		uint16(rng.Intn(4)), uint16(rng.Intn(4)),
		packet.TCPOptions{Flags: uint8(rng.Intn(64)), Payload: []byte("aXYZb")[:rng.Intn(5)]})
	return p, p.Clone()
}

// buildTwoReaders constructs a program where a scalar global is read at
// two independent sites (no dependence between them, so label rules 3/4
// do not order them and the constraint-3 placement search must choose):
//
//	site A's read feeds a chain of five additions;
//	site B's read keys a map lookup that rewrites the packet.
//
// The unweighted objective prefers site A (six offloadable statements vs
// five); the §7 weighted objective prefers site B (a table lookup is worth
// far more than ALU operations).
func buildTwoReaders(t testing.TB) (*ir.Program, siteIDs) {
	t.Helper()
	g := &ir.Global{Name: "g", Kind: ir.KindScalar, ValTypes: []ir.Type{ir.U32}}
	mB := &ir.Global{Name: "mB", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U32}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 1024}
	mLog := &ir.Global{Name: "mLog", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U32}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 1024}

	b := ir.NewBuilder("tworeaders")
	// Site A: read feeds a 5-add chain whose result is logged to a map
	// (the server-side insert strips the chain's post label, so the chain
	// is offloadable only as pre).
	readA := b.GlobalLoad("ra", g)
	one := b.Const("one", ir.U32, 1)
	acc := readA
	for i := 0; i < 5; i++ {
		acc = b.BinOp("acc", ir.Add, acc, one)
	}
	b.StoreHeader("ip.saddr", acc)
	kA := b.Const("kA", ir.U32, 1)
	b.MapInsert(mLog, []ir.Reg{kA}, []ir.Reg{acc})

	// Site B: read keys a table lookup whose value is also logged (again
	// pre-only).
	readB := b.GlobalLoad("rb", g)
	found, vals := b.MapFind("f", mB, readB)
	kB := b.Const("kB", ir.U32, 2)
	b.MapInsert(mLog, []ir.Reg{kB}, []ir.Reg{vals[0]})
	hit := b.NewBlock()
	miss := b.NewBlock()
	b.Branch(found, hit, miss)
	b.SetBlock(hit)
	b.StoreHeader("ip.daddr", vals[0])
	b.Send()
	b.SetBlock(miss)
	b.Send()

	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "tworeaders", Globals: []*ir.Global{g, mB, mLog}, Fn: fn}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var ids siteIDs
	for _, s := range fn.Stmts() {
		switch {
		case s.Kind == ir.GlobalLoad && ids.readA == 0:
			ids.readA = s.ID + 1 // +1 sentinel so zero means unset
		case s.Kind == ir.GlobalLoad:
			ids.readB = s.ID + 1
		case s.Kind == ir.MapFind:
			ids.find = s.ID + 1
		}
	}
	return p, ids
}

type siteIDs struct{ readA, readB, find int }

func TestWeightedObjectivePrefersLookup(t *testing.T) {
	p, ids := buildTwoReaders(t)

	// Unweighted: site A's longer chain wins; the lookup goes to the
	// server.
	plain, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Assign[ids.readA-1] != Pre {
		t.Errorf("unweighted: site A read assigned %v, want pre", plain.Assign[ids.readA-1])
	}
	if plain.Assign[ids.find-1] == Pre {
		t.Errorf("unweighted: map lookup assigned pre; expected the ALU chain to win the count objective")
	}

	// Weighted: the lookup dominates.
	c := DefaultConstraints()
	c.WeightedObjective = true
	weighted, err := Partition(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Assign[ids.find-1] != Pre {
		t.Errorf("weighted: map lookup assigned %v, want pre", weighted.Assign[ids.find-1])
	}
	if weighted.Assign[ids.readA-1] == Pre {
		t.Errorf("weighted: site A read still pre; constraint 3 should have moved it")
	}

	// Both partitions remain correct.
	assertEquivalent(t, p, plain, 300)
	assertEquivalent(t, p, weighted, 300)
}

func TestDisaggregatedRMTAllowsMultipleAccesses(t *testing.T) {
	p, ids := buildTwoReaders(t)

	c := DefaultConstraints()
	c.DisaggregatedRMT = true
	res, err := Partition(p, c)
	if err != nil {
		t.Fatal(err)
	}
	// Both reads of g run on the switch now.
	if res.Assign[ids.readA-1] != Pre || res.Assign[ids.readB-1] != Pre {
		t.Errorf("dRMT: reads assigned %v/%v, want both pre",
			res.Assign[ids.readA-1], res.Assign[ids.readB-1])
	}
	if res.Assign[ids.find-1] != Pre {
		t.Errorf("dRMT: lookup assigned %v, want pre", res.Assign[ids.find-1])
	}

	plain, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.NumPre <= plain.Report.NumPre {
		t.Errorf("dRMT offloads %d statements, traditional RMT %d; want strictly more",
			res.Report.NumPre, plain.Report.NumPre)
	}
	assertEquivalent(t, p, res, 300)
}

func TestWeightedObjectiveOnFuzzPrograms(t *testing.T) {
	// The weighted objective must never break correctness; sweep a slice
	// of the fuzz corpus under it (and under dRMT).
	for seed := int64(0); seed < 40; seed++ {
		p := genProgram(seed)
		for _, variant := range []func(*Constraints){
			func(c *Constraints) { c.WeightedObjective = true },
			func(c *Constraints) { c.DisaggregatedRMT = true },
			func(c *Constraints) { c.WeightedObjective = true; c.DisaggregatedRMT = true },
		} {
			c := DefaultConstraints()
			variant(&c)
			res, err := Partition(p, c)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			assertFuzzEquivalent(t, p, res, seed)
		}
	}
}

// assertFuzzEquivalent is assertEquivalent adapted to generated programs
// (skips traces whose reference execution faults, compares only forwarded
// packets).
func assertFuzzEquivalent(t *testing.T, p *ir.Program, res *Result, seed int64) {
	t.Helper()
	stRef := ir.NewState(p)
	stPart := ir.NewState(p)
	if _, ok := stRef.Vecs["vec"]; ok {
		stRef.Vecs["vec"] = []uint64{3, 1, 4, 1, 5}
		stPart.Vecs["vec"] = []uint64{3, 1, 4, 1, 5}
	}
	if _, ok := stRef.Lpms["routes"]; ok {
		for _, st := range []*ir.State{stRef, stPart} {
			st.AddRoute("routes", 0, 0, 7)
			st.AddRoute("routes", 2<<24, 8, 8)
		}
	}
	for i := 0; i < 80; i++ {
		pktRef, pktPart := fuzzPacketPair(seed, i)
		rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
		if err != nil {
			return
		}
		tr, err := res.ExecPipeline(stPart, pktPart)
		if err != nil {
			t.Fatalf("seed %d pkt %d: %v", seed, i, err)
		}
		if rRef.Action != tr.Action {
			t.Fatalf("seed %d pkt %d: action ref=%v part=%v", seed, i, rRef.Action, tr.Action)
		}
		if rRef.Action == ir.ActionSent {
			fld, _ := packet.LookupField("ip.saddr")
			a, b := fld.Get(pktRef), fld.Get(pktPart)
			if a != b {
				t.Fatalf("seed %d pkt %d: saddr mismatch", seed, i)
			}
		}
	}
	if !stRef.Equal(stPart) {
		t.Fatalf("seed %d: state mismatch", seed)
	}
}
