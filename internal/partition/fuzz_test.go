package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// This file fuzz-tests the partitioner: it generates random structured
// middlebox programs — random global state, random expression trees mixing
// offloadable and non-offloadable operations, nested branches, header
// rewrites, map updates — partitions them under randomized resource
// constraints, and checks the two properties the paper promises for EVERY
// program: the partition respects the constraints, and the partitioned
// pipeline is functionally equivalent to the input on random traffic.

// progGen builds random programs.
type progGen struct {
	rng     *rand.Rand
	b       *ir.Builder
	globals []*ir.Global
	// pools of defined registers by type
	regs map[ir.Type][]ir.Reg
	// depth limits nesting
	depth int
}

var genHeaderFields = []struct {
	name string
	typ  ir.Type
}{
	{"ip.saddr", ir.U32}, {"ip.daddr", ir.U32}, {"ip.ttl", ir.U8},
	{"tcp.sport", ir.U16}, {"tcp.dport", ir.U16}, {"tcp.flags", ir.U8},
}

func genProgram(seed int64) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	g := &progGen{rng: rng, b: ir.NewBuilder("fuzz"), regs: map[ir.Type][]ir.Reg{}}

	// Random globals: 1-2 maps, maybe a scalar, maybe a vector.
	nMaps := 1 + rng.Intn(2)
	for i := 0; i < nMaps; i++ {
		keyArity := 1 + rng.Intn(2)
		valArity := 1 + rng.Intn(2)
		gl := &ir.Global{Name: fmt.Sprintf("m%d", i), Kind: ir.KindMap}
		for k := 0; k < keyArity; k++ {
			gl.KeyTypes = append(gl.KeyTypes, g.randType())
		}
		for v := 0; v < valArity; v++ {
			gl.ValTypes = append(gl.ValTypes, g.randType())
		}
		if rng.Intn(4) > 0 {
			gl.MaxEntries = 1 << (6 + rng.Intn(8))
		}
		g.globals = append(g.globals, gl)
	}
	if rng.Intn(2) == 0 {
		g.globals = append(g.globals, &ir.Global{Name: "ctr", Kind: ir.KindScalar, ValTypes: []ir.Type{g.randType()}})
	}
	if rng.Intn(2) == 0 {
		g.globals = append(g.globals, &ir.Global{Name: "vec", Kind: ir.KindVec, ValTypes: []ir.Type{ir.U32}, MaxEntries: 8})
	}
	if rng.Intn(3) == 0 {
		g.globals = append(g.globals, &ir.Global{Name: "routes", Kind: ir.KindLPM, ValTypes: []ir.Type{ir.U32}, MaxEntries: 16})
	}

	// Seed registers with some header loads and constants.
	for i := 0; i < 2+rng.Intn(3); i++ {
		g.emitLeaf()
	}
	g.block(2 + rng.Intn(3))
	// Whatever path falls through drops — fine.
	fn := g.b.Fn()
	fn.Finalize()
	return &ir.Program{Name: "fuzz", Globals: g.globals, Fn: fn}
}

func (g *progGen) randType() ir.Type {
	return []ir.Type{ir.U8, ir.U16, ir.U32}[g.rng.Intn(3)]
}

func (g *progGen) reg(t ir.Type) ir.Reg {
	pool := g.regs[t]
	if len(pool) == 0 || g.rng.Intn(3) == 0 {
		r := g.b.Const(fmt.Sprintf("c%d", g.rng.Intn(1000)), t, uint64(g.rng.Intn(256)))
		g.regs[t] = append(g.regs[t], r)
		return r
	}
	return pool[g.rng.Intn(len(pool))]
}

func (g *progGen) record(r ir.Reg, t ir.Type) {
	g.regs[t] = append(g.regs[t], r)
}

// emitLeaf produces one value-defining statement.
func (g *progGen) emitLeaf() {
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		f := genHeaderFields[g.rng.Intn(len(genHeaderFields))]
		g.record(g.b.LoadHeader("h", f.name, f.typ), f.typ)
	case 3, 4:
		t := g.randType()
		// Avoid Div/Mod by possibly-zero operands.
		ops := []ir.Op{ir.Add, ir.Sub, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Mul}
		op := ops[g.rng.Intn(len(ops))]
		r := g.b.BinOp("op", op, g.reg(t), g.reg(t))
		g.record(r, t)
	case 5:
		g.record(g.b.Hash("hash", g.reg(g.randType())), ir.U32)
	case 6:
		g.record(g.b.PayloadMatch("pm", "XYZ"), ir.Bool)
	case 7:
		if gl := g.findGlobal(ir.KindScalar); gl != nil {
			g.record(g.b.GlobalLoad("gl", gl), gl.ValTypes[0])
			return
		}
		g.record(g.b.Const("c", ir.U16, 7), ir.U16)
	case 8:
		if gl := g.findGlobal(ir.KindVec); gl != nil {
			idx := g.b.Const("i", ir.U32, uint64(g.rng.Intn(4)))
			g.record(g.b.VecGet("ve", gl, idx), gl.ValTypes[0])
			return
		}
		if gl := g.findGlobal(ir.KindLPM); gl != nil {
			found, vals := g.b.LpmFind("rt", gl, g.reg(ir.U32))
			g.record(found, ir.Bool)
			g.record(vals[0], gl.ValTypes[0])
			return
		}
		g.record(g.b.Const("c", ir.U32, 9), ir.U32)
	default:
		t := g.randType()
		r := g.b.BinOp("cmp", ir.Eq, g.reg(t), g.reg(t))
		g.record(r, ir.Bool)
	}
}

func (g *progGen) findGlobal(k ir.GlobalKind) *ir.Global {
	var cands []*ir.Global
	for _, gl := range g.globals {
		if gl.Kind == k {
			cands = append(cands, gl)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.rng.Intn(len(cands))]
}

// stmt emits one random statement (possibly a nested if); it reports
// whether the current block was terminated.
func (g *progGen) stmt() bool {
	switch g.rng.Intn(12) {
	case 0, 1, 2, 3:
		g.emitLeaf()
	case 4:
		f := genHeaderFields[g.rng.Intn(len(genHeaderFields))]
		g.b.StoreHeader(f.name, g.reg(f.typ))
	case 5:
		if gl := g.findGlobal(ir.KindMap); gl != nil {
			keys := make([]ir.Reg, len(gl.KeyTypes))
			for i, t := range gl.KeyTypes {
				keys[i] = g.reg(t)
			}
			found, vals := g.b.MapFind("f", gl, keys...)
			g.record(found, ir.Bool)
			for i, v := range vals {
				g.record(v, gl.ValTypes[i])
			}
		}
	case 6:
		if gl := g.findGlobal(ir.KindMap); gl != nil {
			keys := make([]ir.Reg, len(gl.KeyTypes))
			for i, t := range gl.KeyTypes {
				keys[i] = g.reg(t)
			}
			vals := make([]ir.Reg, len(gl.ValTypes))
			for i, t := range gl.ValTypes {
				vals[i] = g.reg(t)
			}
			if g.rng.Intn(4) == 0 {
				g.b.MapRemove(gl, keys)
			} else {
				g.b.MapInsert(gl, keys, vals)
			}
		}
	case 7:
		if gl := g.findGlobal(ir.KindScalar); gl != nil {
			g.b.GlobalStore(gl, g.reg(gl.ValTypes[0]))
		}
	case 8, 9:
		if g.depth < 3 {
			return g.ifStmt()
		}
		g.emitLeaf()
	case 10:
		if g.depth == 0 && g.rng.Intn(3) == 0 {
			g.whileLoop()
			return false
		}
		g.b.Send()
		return true
	default:
		if g.rng.Intn(4) == 0 {
			g.b.Drop()
			return true
		}
		g.emitLeaf()
	}
	return false
}

// block emits up to n statements, stopping at a terminator.
func (g *progGen) block(n int) bool {
	for i := 0; i < n; i++ {
		if g.stmt() {
			return true
		}
	}
	return false
}

func (g *progGen) ifStmt() bool {
	g.depth++
	defer func() { g.depth-- }()
	// Condition from the bool pool (or fabricate one).
	var cond ir.Reg
	if pool := g.regs[ir.Bool]; len(pool) > 0 {
		cond = pool[g.rng.Intn(len(pool))]
	} else {
		t := g.randType()
		cond = g.b.BinOp("c", ir.Ne, g.reg(t), g.reg(t))
	}
	then := g.b.NewBlock()
	els := g.b.NewBlock()
	g.b.Branch(cond, then, els)

	// Save/restore register pools so each arm only sees values defined on
	// its path or before the branch (mimicking lexical scoping; avoids
	// use-before-def across exclusive arms).
	saved := g.clonePools()
	g.b.SetBlock(then)
	t1 := g.block(1 + g.rng.Intn(3))
	thenBlk := g.b.Cur()
	g.regs = saved

	saved = g.clonePools()
	g.b.SetBlock(els)
	t2 := g.block(1 + g.rng.Intn(3))
	elsBlk := g.b.Cur()
	g.regs = saved

	if t1 && t2 {
		return true
	}
	join := g.b.NewBlock()
	if !t1 {
		g.b.SetBlock(thenBlk)
		g.b.Jump(join)
	}
	if !t2 {
		g.b.SetBlock(elsBlk)
		g.b.Jump(join)
	}
	g.b.SetBlock(join)
	return false
}

// whileLoop emits a bounded counting loop whose body does loop-carried
// arithmetic and possibly a global write — exercising label rule 5 (loop
// bodies never offload).
func (g *progGen) whileLoop() {
	iters := uint64(1 + g.rng.Intn(4))
	i := g.b.Const("i", ir.U32, 0)
	head := g.b.NewBlock()
	body := g.b.NewBlock()
	exit := g.b.NewBlock()
	g.b.Jump(head)

	g.b.SetBlock(head)
	lim := g.b.Const("lim", ir.U32, iters)
	c := g.b.BinOp("lc", ir.Lt, i, lim)
	g.b.Branch(c, body, exit)

	g.b.SetBlock(body)
	one := g.b.Const("one", ir.U32, 1)
	next := g.b.BinOp("next", ir.Add, i, one)
	// Write the increment back into the counter register (non-SSA copy,
	// like the front end's mutable locals).
	g.b.Cur().Instrs = append(g.b.Cur().Instrs, ir.Instr{
		Kind: ir.Convert, Dst: []ir.Reg{i}, Args: []ir.Reg{next}, Typ: ir.U32,
	})
	if gl := g.findGlobal(ir.KindScalar); gl != nil && g.rng.Intn(2) == 0 {
		g.b.GlobalStore(gl, next)
	}
	g.b.Jump(head)

	g.b.SetBlock(exit)
	g.record(i, ir.U32)
}

func (g *progGen) clonePools() map[ir.Type][]ir.Reg {
	c := map[ir.Type][]ir.Reg{}
	for t, rs := range g.regs {
		c[t] = append([]ir.Reg(nil), rs...)
	}
	return c
}

// randConstraints picks a random (sometimes tight) constraint set.
func randConstraints(rng *rand.Rand) Constraints {
	c := DefaultConstraints()
	if rng.Intn(3) == 0 {
		c.PipelineDepth = 4 + rng.Intn(28)
	}
	if rng.Intn(3) == 0 {
		c.TransferBytes = 2 + rng.Intn(18)
	}
	if rng.Intn(3) == 0 {
		c.MetadataBytes = 8 + rng.Intn(56)
	}
	if rng.Intn(4) == 0 {
		c.SwitchMemoryBytes = 1 << (10 + rng.Intn(14))
	}
	return c
}

// TestFuzzPartitionEquivalence generates many random programs and checks
// that partitioning succeeds and preserves behaviour on random traffic.
func TestFuzzPartitionEquivalence(t *testing.T) {
	programs := 150
	if testing.Short() {
		programs = 30
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		p := genProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid program: %v", seed, err)
		}
		crng := rand.New(rand.NewSource(seed * 31))
		cons := randConstraints(crng)
		res, err := Partition(p, cons)
		if err != nil {
			t.Fatalf("seed %d: partition failed: %v\n%s", seed, err, p.String())
		}

		// Constraint checks on the output.
		if res.Report.DepthPre > cons.PipelineDepth || res.Report.DepthPost > cons.PipelineDepth {
			t.Fatalf("seed %d: pipeline depth violated", seed)
		}
		if res.FormatA.DataLen() > cons.TransferBytes || res.FormatB.DataLen() > cons.TransferBytes {
			t.Fatalf("seed %d: transfer budget violated (%d/%d > %d)",
				seed, res.FormatA.DataLen(), res.FormatB.DataLen(), cons.TransferBytes)
		}
		if res.Report.MaxMetadataBits > cons.MetadataBytes*8 {
			t.Fatalf("seed %d: metadata budget violated", seed)
		}
		if res.Report.SwitchMemoryBytes > cons.SwitchMemoryBytes {
			t.Fatalf("seed %d: switch memory violated", seed)
		}
		perGlobal := map[string]int{}
		for id, a := range res.Assign {
			if a == NonOff {
				continue
			}
			if gn := globalOf(p, id); gn != "" {
				perGlobal[gn]++
			}
		}
		for gn, n := range perGlobal {
			if n > 1 {
				t.Fatalf("seed %d: global %s accessed %d times on the switch", seed, gn, n)
			}
		}

		// Behavioural equivalence on random traffic.
		stRef := ir.NewState(p)
		stPart := ir.NewState(p)
		if _, ok := stRef.Vecs["vec"]; ok {
			vals := []uint64{3, 1, 4, 1, 5}
			stRef.Vecs["vec"] = append([]uint64(nil), vals...)
			stPart.Vecs["vec"] = append([]uint64(nil), vals...)
		}
		if _, ok := stRef.Lpms["routes"]; ok {
			for _, st := range []*ir.State{stRef, stPart} {
				st.AddRoute("routes", 0, 0, 7)
				st.AddRoute("routes", 2<<24, 8, 8)
			}
		}
		trng := rand.New(rand.NewSource(seed * 7))
		for i := 0; i < 150; i++ {
			pktRef := packet.BuildTCP(
				packet.IPv4Addr(trng.Intn(8)), packet.IPv4Addr(trng.Intn(8)),
				uint16(trng.Intn(4)), uint16(trng.Intn(4)),
				packet.TCPOptions{Flags: uint8(trng.Intn(64)), Payload: []byte("aXYZb")[:trng.Intn(5)]})
			pktPart := pktRef.Clone()
			rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
			if err != nil {
				// Reference failed (e.g. vector index out of range):
				// acceptable for generated code, skip the trace entirely.
				break
			}
			tr, err := res.ExecPipeline(stPart, pktPart)
			if err != nil {
				t.Fatalf("seed %d pkt %d: pipeline error: %v\n%s", seed, i, err, p.String())
			}
			if rRef.Action != tr.Action {
				t.Fatalf("seed %d pkt %d: action ref=%v part=%v\n%s", seed, i, rRef.Action, tr.Action, p.String())
			}
			// Header contents are observable only for forwarded packets;
			// a dropped packet's pending rewrites are dead stores the
			// partition may legitimately never execute.
			if rRef.Action == ir.ActionSent {
				for _, f := range []string{"ip.saddr", "ip.daddr", "ip.ttl", "tcp.sport", "tcp.dport", "tcp.flags"} {
					fld, _ := packet.LookupField(f)
					a, b := fld.Get(pktRef), fld.Get(pktPart)
					if a != b {
						t.Fatalf("seed %d pkt %d: field %s ref=%d part=%d\n%s", seed, i, f, a, b, p.String())
					}
				}
			}
		}
		if !stRef.Equal(stPart) {
			t.Fatalf("seed %d: final state mismatch\n%s", seed, p.String())
		}
	}
}

func globalOf(p *ir.Program, id int) string {
	s := p.Fn.Stmt(id)
	switch s.Kind {
	case ir.MapFind, ir.MapInsert, ir.MapRemove, ir.VecGet, ir.VecLen, ir.GlobalLoad, ir.GlobalStore:
		return s.Obj
	}
	return ""
}
