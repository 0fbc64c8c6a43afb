package ir

import (
	"bytes"
	"fmt"
)

// This file implements the compiled executor the runtimes run partitions
// with. CompileFunc resolves everything the reference interpreter derives
// per instruction per packet — result masks, key arities, value masks,
// header-field handles, globals — once, and turns each instruction into
// one closure over those bindings. Its observable behaviour (action,
// step count, packet, transfer slots, state accesses, error text) is
// exactly ExecFunc's; the differential tests hold it to that.

// op executes one compiled instruction against the register file.
type op func(regs []uint64, env *Env) error

// Compiled is a function compiled to pre-bound closures. It is immutable
// after CompileFunc and safe for concurrent Runs with distinct Envs.
type Compiled struct {
	name   string
	nregs  int
	blocks []compiledBlock
}

type compiledBlock struct {
	ops  []op
	term compiledTerm
}

// compiledTerm is a block terminator with its operands unpacked.
type compiledTerm struct {
	kind      Kind
	cond      Reg
	then, els int
}

// CompileFunc compiles fn (the whole program or one partition) against
// p's globals. Instructions the reference interpreter would reject at run
// time (an unknown global or header field, an unexecutable kind) compile
// to closures failing with the same error, so compilation itself never
// fails.
func CompileFunc(p *Program, fn *Function) *Compiled {
	p.NumberGlobals()
	globals := make(map[string]*Global, len(p.Globals))
	for _, g := range p.Globals {
		if _, dup := globals[g.Name]; !dup {
			globals[g.Name] = g
		}
	}
	c := &Compiled{name: fn.Name, nregs: len(fn.Regs), blocks: make([]compiledBlock, len(fn.Blocks))}
	for bi, b := range fn.Blocks {
		cb := &c.blocks[bi]
		cb.ops = make([]op, len(b.Instrs))
		for i := range b.Instrs {
			cb.ops[i] = compileInstr(fn, &b.Instrs[i], globals)
		}
		t := &b.Term
		cb.term = compiledTerm{kind: t.Kind, cond: NoReg, then: t.Then, els: t.Else}
		if t.Kind == Branch && len(t.Args) > 0 {
			cb.term.cond = t.Args[0]
		}
	}
	return c
}

// Run executes the compiled function against env, exactly as ExecFunc
// would execute the source function.
func (c *Compiled) Run(env *Env) (Result, error) {
	regs := env.regFile(c.nregs)
	b := &c.blocks[0]
	steps := 0
	for {
		if n := len(b.ops) + 1; steps+n <= maxSteps {
			// The whole block fits under the step limit: no per-op check.
			for _, o := range b.ops {
				if err := o(regs, env); err != nil {
					return Result{}, err
				}
			}
			steps += n
		} else {
			for _, o := range b.ops {
				if steps++; steps > maxSteps {
					return Result{}, stepLimit(c.name)
				}
				if err := o(regs, env); err != nil {
					return Result{}, err
				}
			}
			if steps++; steps > maxSteps {
				return Result{}, stepLimit(c.name)
			}
		}
		t := &b.term
		switch t.kind {
		case Jump:
			b = &c.blocks[t.then]
		case Branch:
			if regs[t.cond] != 0 {
				b = &c.blocks[t.then]
			} else {
				b = &c.blocks[t.els]
			}
		case Send:
			return Result{Action: ActionSent, Steps: steps}, nil
		case Drop:
			return Result{Action: ActionDropped, Steps: steps}, nil
		case ToNext:
			return Result{Action: ActionNext, Steps: steps}, nil
		default:
			return Result{}, fmt.Errorf("ir: %s: bad terminator %s", c.name, t.kind)
		}
	}
}

// fail compiles an instruction that always returns err.
func fail(err error) op {
	return func([]uint64, *Env) error { return err }
}

// minOperands is the fewest destinations and arguments a kind's closure
// binds; Validate enforces the exact arities.
func minOperands(k Kind) (dst, args int) {
	switch k {
	case BinOp:
		return 1, 2
	case Not, Convert, VecGet, LpmFind:
		return 1, 1
	case Const, LoadHeader, PayloadMatch, Hash, MapFind, VecLen, GlobalLoad, XferLoad:
		return 1, 0
	case StoreHeader, GlobalStore, XferStore:
		return 0, 1
	}
	return 0, 0
}

func compileInstr(fn *Function, in *Instr, globals map[string]*Global) op {
	if nd, na := minOperands(in.Kind); len(in.Dst) < nd || len(in.Args) < na {
		return fail(fmt.Errorf("ir: stmt %d: malformed %s (%d dsts, %d args)", in.ID, in.Kind, len(in.Dst), len(in.Args)))
	}
	var d Reg
	var m uint64
	if len(in.Dst) > 0 {
		d = in.Dst[0]
		m = fn.RegType(d).Mask()
	}
	switch in.Kind {
	case Const:
		v := in.Imm & m
		return func(r []uint64, _ *Env) error { r[d] = v; return nil }
	case BinOp:
		return compileBinOp(in, d, m)
	case Not:
		a := in.Args[0]
		return func(r []uint64, _ *Env) error {
			r[d] = boolVal(r[a] == 0)
			return nil
		}
	case Convert:
		a := in.Args[0]
		return func(r []uint64, _ *Env) error { r[d] = r[a] & m; return nil }
	case LoadHeader:
		if !in.fld.Valid() {
			return fail(unknownField(in))
		}
		f := in.fld
		return func(r []uint64, e *Env) error { r[d] = f.Get(e.Pkt) & m; return nil }
	case StoreHeader:
		if !in.fld.Valid() {
			return fail(unknownField(in))
		}
		f, a := in.fld, in.Args[0]
		return func(r []uint64, e *Env) error { f.Set(e.Pkt, r[a]); return nil }
	case PayloadMatch:
		pat := in.pat
		if pat == nil {
			pat = []byte(in.Obj)
		}
		return func(r []uint64, e *Env) error {
			r[d] = boolVal(bytes.Contains(e.Pkt.Payload, pat))
			return nil
		}
	case Hash:
		args := in.Args
		return func(r []uint64, _ *Env) error {
			r[d] = hashValues(r, args) & U32.Mask()
			return nil
		}
	case MapFind, MapInsert, MapRemove, VecGet, VecLen, GlobalLoad, GlobalStore, LpmFind:
		g := globals[in.Obj]
		if g == nil {
			return fail(unknownGlobal(in))
		}
		return compileState(fn, in, g, d, m)
	case XferLoad:
		slot, id, obj := in.Slot, in.ID, in.Obj
		return func(r []uint64, e *Env) error {
			if slot <= 0 || slot > len(e.Xfer) {
				return fmt.Errorf("ir: stmt %d: xferload %q with no transfer context (slot %d, %d slots)", id, obj, slot, len(e.Xfer))
			}
			r[d] = e.Xfer[slot-1] & m
			return nil
		}
	case XferStore:
		slot, id, obj, a := in.Slot, in.ID, in.Obj, in.Args[0]
		return func(r []uint64, e *Env) error {
			if slot <= 0 || slot > len(e.Xfer) {
				return fmt.Errorf("ir: stmt %d: xferstore %q with no transfer context (slot %d, %d slots)", id, obj, slot, len(e.Xfer))
			}
			e.Xfer[slot-1] = r[a]
			return nil
		}
	}
	return fail(fmt.Errorf("ir: stmt %d: cannot execute kind %s", in.ID, in.Kind))
}

// compileBinOp specialises the switch-supported operations into one
// closure each; the rest (mul/div/mod, which can fail) share evalBinOp so
// their errors stay the reference interpreter's.
func compileBinOp(in *Instr, d Reg, m uint64) op {
	a, b := in.Args[0], in.Args[1]
	switch in.Op {
	case Add:
		return func(r []uint64, _ *Env) error { r[d] = (r[a] + r[b]) & m; return nil }
	case Sub:
		return func(r []uint64, _ *Env) error { r[d] = (r[a] - r[b]) & m; return nil }
	case And:
		return func(r []uint64, _ *Env) error { r[d] = r[a] & r[b] & m; return nil }
	case Or:
		return func(r []uint64, _ *Env) error { r[d] = (r[a] | r[b]) & m; return nil }
	case Xor:
		return func(r []uint64, _ *Env) error { r[d] = (r[a] ^ r[b]) & m; return nil }
	case Shl:
		return func(r []uint64, _ *Env) error {
			if s := r[b]; s < 64 {
				r[d] = r[a] << s & m
			} else {
				r[d] = 0
			}
			return nil
		}
	case Shr:
		return func(r []uint64, _ *Env) error {
			if s := r[b]; s < 64 {
				r[d] = r[a] >> s & m
			} else {
				r[d] = 0
			}
			return nil
		}
	case Eq:
		return func(r []uint64, _ *Env) error { r[d] = boolVal(r[a] == r[b]) & m; return nil }
	case Ne:
		return func(r []uint64, _ *Env) error { r[d] = boolVal(r[a] != r[b]) & m; return nil }
	case Lt:
		return func(r []uint64, _ *Env) error { r[d] = boolVal(r[a] < r[b]) & m; return nil }
	case Le:
		return func(r []uint64, _ *Env) error { r[d] = boolVal(r[a] <= r[b]) & m; return nil }
	case Gt:
		return func(r []uint64, _ *Env) error { r[d] = boolVal(r[a] > r[b]) & m; return nil }
	case Ge:
		return func(r []uint64, _ *Env) error { r[d] = boolVal(r[a] >= r[b]) & m; return nil }
	}
	o, id := in.Op, in.ID
	return func(r []uint64, _ *Env) error {
		v, err := evalBinOp(o, r[a], r[b])
		if err != nil {
			return fmt.Errorf("ir: stmt %d: %w", id, err)
		}
		r[d] = v & m
		return nil
	}
}

// findDst is where a map or LPM lookup writes its result: the found flag
// and the value tuple, masked to the destination registers' types.
type findDst struct {
	found Reg
	vals  []Reg
	masks []uint64
}

func (f *findDst) set(r []uint64, vals []uint64, ok bool) {
	if !ok {
		r[f.found] = 0
		for _, vr := range f.vals {
			r[vr] = 0
		}
		return
	}
	r[f.found] = 1
	for i, vr := range f.vals {
		r[vr] = vals[i] & f.masks[i]
	}
}

// compileState binds a state instruction to its resolved global, key
// arity and value masks.
func compileState(fn *Function, in *Instr, g *Global, d Reg, m uint64) op {
	id := in.ID
	wrap := func(err error) error { return fmt.Errorf("ir: stmt %d: %w", id, err) }
	switch in.Kind {
	case MapFind, LpmFind:
		args := in.Args
		out := findDst{found: d, vals: in.Dst[1:], masks: make([]uint64, len(in.Dst)-1)}
		for i, r := range out.vals {
			out.masks[i] = fn.RegType(r).Mask()
		}
		if in.Kind == LpmFind {
			k := args[0]
			return func(r []uint64, e *Env) error {
				vals, ok := e.access().LpmFind(g, r[k])
				out.set(r, vals, ok)
				return nil
			}
		}
		return func(r []uint64, e *Env) error {
			vals, ok := e.access().MapFind(g, keyOf(r, args))
			out.set(r, vals, ok)
			return nil
		}
	case MapInsert:
		nk := len(g.KeyTypes)
		if nk > len(in.Args) || len(in.Args)-nk > len(g.ValTypes) {
			return fail(fmt.Errorf("ir: stmt %d: mapinsert %q arity %d does not fit the map", id, g.Name, len(in.Args)))
		}
		keys, vargs := in.Args[:nk], in.Args[nk:]
		vmask := make([]uint64, len(vargs))
		for i := range vargs {
			vmask[i] = g.ValTypes[i].Mask()
		}
		return func(r []uint64, e *Env) error {
			key := keyOf(r, keys)
			vals := make([]uint64, len(vargs))
			for i, vr := range vargs {
				vals[i] = r[vr] & vmask[i]
			}
			if err := e.access().MapInsert(g, key, vals); err != nil {
				return wrap(err)
			}
			return nil
		}
	case MapRemove:
		args := in.Args
		return func(r []uint64, e *Env) error {
			if err := e.access().MapRemove(g, keyOf(r, args)); err != nil {
				return wrap(err)
			}
			return nil
		}
	case VecGet:
		a := in.Args[0]
		return func(r []uint64, e *Env) error {
			v, err := e.access().VecGet(g, r[a])
			if err != nil {
				return wrap(err)
			}
			r[d] = v & m
			return nil
		}
	case VecLen:
		return func(r []uint64, e *Env) error { r[d] = e.access().VecLen(g); return nil }
	case GlobalLoad:
		return func(r []uint64, e *Env) error { r[d] = e.access().GlobalLoad(g) & m; return nil }
	}
	// GlobalStore.
	if len(g.ValTypes) == 0 {
		return fail(fmt.Errorf("ir: stmt %d: gstore %q has no value type", id, g.Name))
	}
	a, vm := in.Args[0], g.ValTypes[0].Mask()
	return func(r []uint64, e *Env) error {
		if err := e.access().GlobalStore(g, r[a]&vm); err != nil {
			return wrap(err)
		}
		return nil
	}
}
