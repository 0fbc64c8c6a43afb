package ir

import "fmt"

// Builder incrementally constructs a Function. The front end and tests use
// it; it keeps a current block that emitted instructions append to.
type Builder struct {
	fn  *Function
	cur *Block
	// line is stamped onto every emitted instruction and terminator, so
	// diagnostics can point back at the source statement. Zero means
	// "synthesized" (no source position).
	line int
	// xferSlots assigns each distinct transfer-variable name a stable
	// 1-based scratchpad slot, mirroring what the partitioner computes for
	// generated code, so hand-built functions execute against a flat
	// []uint64 transfer context.
	xferSlots map[string]int
}

// NewBuilder starts a function with one entry block (ID 0), which is also
// the current block.
func NewBuilder(name string) *Builder {
	f := &Function{Name: name}
	b := &Builder{fn: f}
	b.cur = b.NewBlock()
	return b
}

// Fn returns the function under construction.
func (b *Builder) Fn() *Function { return b.fn }

// NewReg allocates a fresh virtual register.
func (b *Builder) NewReg(name string, t Type) Reg {
	b.fn.Regs = append(b.fn.Regs, RegInfo{Name: name, Type: t})
	return Reg(len(b.fn.Regs) - 1)
}

// NewBlock appends a new empty block (with a placeholder terminator) and
// returns it; the current block is unchanged.
func (b *Builder) NewBlock() *Block {
	blk := &Block{ID: len(b.fn.Blocks), Term: Instr{Kind: Drop, Then: -1, Else: -1}}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

// SetBlock makes blk the current block.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Cur returns the current block.
func (b *Builder) Cur() *Block { return b.cur }

// SetPos records the source line stamped on subsequently emitted
// instructions (the front end calls it once per lowered statement).
func (b *Builder) SetPos(line int) { b.line = line }

func (b *Builder) emit(in Instr) {
	in.Line = b.line
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// Const emits dst = imm.
func (b *Builder) Const(name string, t Type, imm uint64) Reg {
	dst := b.NewReg(name, t)
	b.emit(Instr{Kind: Const, Dst: []Reg{dst}, Imm: imm & t.Mask(), Typ: t})
	return dst
}

// BinOp emits dst = x op y. Comparisons produce Bool; other ops produce
// the type of x.
func (b *Builder) BinOp(name string, op Op, x, y Reg) Reg {
	t := b.fn.RegType(x)
	if op.IsComparison() {
		t = Bool
	}
	dst := b.NewReg(name, t)
	b.emit(Instr{Kind: BinOp, Op: op, Dst: []Reg{dst}, Args: []Reg{x, y}, Typ: t})
	return dst
}

// Not emits dst = !x.
func (b *Builder) Not(name string, x Reg) Reg {
	dst := b.NewReg(name, Bool)
	b.emit(Instr{Kind: Not, Dst: []Reg{dst}, Args: []Reg{x}, Typ: Bool})
	return dst
}

// Convert emits dst = (t)x.
func (b *Builder) Convert(name string, t Type, x Reg) Reg {
	dst := b.NewReg(name, t)
	b.emit(Instr{Kind: Convert, Dst: []Reg{dst}, Args: []Reg{x}, Typ: t})
	return dst
}

// LoadHeader emits dst = pkt.field.
func (b *Builder) LoadHeader(name, field string, t Type) Reg {
	dst := b.NewReg(name, t)
	b.emit(Instr{Kind: LoadHeader, Dst: []Reg{dst}, Obj: field, Typ: t})
	return dst
}

// StoreHeader emits pkt.field = x.
func (b *Builder) StoreHeader(field string, x Reg) {
	b.emit(Instr{Kind: StoreHeader, Args: []Reg{x}, Obj: field})
}

// PayloadMatch emits dst = payload contains pattern.
func (b *Builder) PayloadMatch(name, pattern string) Reg {
	dst := b.NewReg(name, Bool)
	b.emit(Instr{Kind: PayloadMatch, Dst: []Reg{dst}, Obj: pattern, Typ: Bool})
	return dst
}

// Hash emits dst = hash(args...), a 32-bit value.
func (b *Builder) Hash(name string, args ...Reg) Reg {
	dst := b.NewReg(name, U32)
	b.emit(Instr{Kind: Hash, Dst: []Reg{dst}, Args: args, Typ: U32})
	return dst
}

// MapFind emits found, vals... = m.find(keys...). It allocates one Bool
// register plus one register per value-tuple element.
func (b *Builder) MapFind(name string, g *Global, keys ...Reg) (found Reg, vals []Reg) {
	found = b.NewReg(name+".ok", Bool)
	dst := []Reg{found}
	for i, vt := range g.ValTypes {
		v := b.NewReg(fmt.Sprintf("%s.v%d", name, i), vt)
		dst = append(dst, v)
		vals = append(vals, v)
	}
	b.emit(Instr{Kind: MapFind, Dst: dst, Args: keys, Obj: g.Name, glob: g})
	return found, vals
}

// MapInsert emits m.insert(keys..., vals...).
func (b *Builder) MapInsert(g *Global, keys, vals []Reg) {
	b.emit(Instr{Kind: MapInsert, Args: append(append([]Reg{}, keys...), vals...), Obj: g.Name, glob: g})
}

// MapRemove emits m.remove(keys...).
func (b *Builder) MapRemove(g *Global, keys []Reg) {
	b.emit(Instr{Kind: MapRemove, Args: append([]Reg{}, keys...), Obj: g.Name, glob: g})
}

// VecGet emits dst = v[idx].
func (b *Builder) VecGet(name string, g *Global, idx Reg) Reg {
	dst := b.NewReg(name, g.ValTypes[0])
	b.emit(Instr{Kind: VecGet, Dst: []Reg{dst}, Args: []Reg{idx}, Obj: g.Name, glob: g})
	return dst
}

// VecLen emits dst = v.size().
func (b *Builder) VecLen(name string, g *Global) Reg {
	dst := b.NewReg(name, U32)
	b.emit(Instr{Kind: VecLen, Dst: []Reg{dst}, Obj: g.Name, glob: g, Typ: U32})
	return dst
}

// GlobalLoad emits dst = g.
func (b *Builder) GlobalLoad(name string, g *Global) Reg {
	dst := b.NewReg(name, g.ValTypes[0])
	b.emit(Instr{Kind: GlobalLoad, Dst: []Reg{dst}, Obj: g.Name, glob: g})
	return dst
}

// GlobalStore emits g = x.
func (b *Builder) GlobalStore(g *Global, x Reg) {
	b.emit(Instr{Kind: GlobalStore, Args: []Reg{x}, Obj: g.Name, glob: g})
}

// LpmFind emits found, vals... = lpm.lookup(key).
func (b *Builder) LpmFind(name string, g *Global, key Reg) (found Reg, vals []Reg) {
	found = b.NewReg(name+".ok", Bool)
	dst := []Reg{found}
	for i, vt := range g.ValTypes {
		v := b.NewReg(fmt.Sprintf("%s.v%d", name, i), vt)
		dst = append(dst, v)
		vals = append(vals, v)
	}
	b.emit(Instr{Kind: LpmFind, Dst: dst, Args: []Reg{key}, Obj: g.Name, glob: g})
	return found, vals
}

// XferSlot returns the scratchpad slot (1-based) for a transfer-variable
// name, assigning the next free slot on first use.
func (b *Builder) XferSlot(field string) int {
	if b.xferSlots == nil {
		b.xferSlots = map[string]int{}
	}
	s, ok := b.xferSlots[field]
	if !ok {
		s = len(b.xferSlots) + 1
		b.xferSlots[field] = s
	}
	return s
}

// NumXferSlots reports how many distinct transfer slots the builder has
// assigned; size Env.Xfer with it when executing the built function.
func (b *Builder) NumXferSlots() int { return len(b.xferSlots) }

// XferLoad emits dst = transfer[name]; used only by the partitioner.
func (b *Builder) XferLoad(regName, field string, t Type) Reg {
	dst := b.NewReg(regName, t)
	b.emit(Instr{Kind: XferLoad, Dst: []Reg{dst}, Obj: field, Typ: t, Slot: b.XferSlot(field)})
	return dst
}

// XferStore emits transfer[name] = x; used only by the partitioner.
func (b *Builder) XferStore(field string, x Reg) {
	b.emit(Instr{Kind: XferStore, Args: []Reg{x}, Obj: field, Slot: b.XferSlot(field)})
}

// Jump terminates the current block with an unconditional jump.
func (b *Builder) Jump(target *Block) {
	b.cur.Term = Instr{Kind: Jump, Then: target.ID, Else: -1, Line: b.line}
}

// Branch terminates the current block with a conditional branch.
func (b *Builder) Branch(cond Reg, then, els *Block) {
	b.cur.Term = Instr{Kind: Branch, Args: []Reg{cond}, Then: then.ID, Else: els.ID, Line: b.line}
}

// Send terminates the current block by forwarding the packet.
func (b *Builder) Send() {
	b.cur.Term = Instr{Kind: Send, Then: -1, Else: -1, Line: b.line}
}

// Drop terminates the current block by discarding the packet.
func (b *Builder) Drop() {
	b.cur.Term = Instr{Kind: Drop, Then: -1, Else: -1, Line: b.line}
}

// ToNext terminates the current block by handing the packet to the next
// pipeline stage; used only by the partitioner.
func (b *Builder) ToNext() {
	b.cur.Term = Instr{Kind: ToNext, Then: -1, Else: -1, Line: b.line}
}
