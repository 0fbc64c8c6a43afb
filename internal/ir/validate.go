package ir

import (
	"fmt"

	"gallium/internal/packet"
)

// Validate checks structural well-formedness of a program: register
// references in range, branch targets valid, globals and header fields
// resolvable, operand arities correct. The front end and the partitioner
// both validate their output.
func (p *Program) Validate() error {
	seen := map[string]bool{}
	for _, g := range p.Globals {
		if seen[g.Name] {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		seen[g.Name] = true
		switch g.Kind {
		case KindMap:
			if len(g.KeyTypes) == 0 || len(g.ValTypes) == 0 {
				return fmt.Errorf("ir: map %q needs key and value types", g.Name)
			}
		case KindVec, KindScalar:
			if len(g.ValTypes) != 1 {
				return fmt.Errorf("ir: %s %q needs exactly one value type", g.Kind, g.Name)
			}
		case KindLPM:
			if len(g.ValTypes) == 0 {
				return fmt.Errorf("ir: lpm %q needs value types", g.Name)
			}
		}
	}
	return p.validateFn(p.Fn)
}

// ValidateFn checks one function (e.g. a partition function produced by
// the compiler) against this program's globals.
func (p *Program) ValidateFn(f *Function) error { return p.validateFn(f) }

func (p *Program) validateFn(f *Function) error {
	if f == nil {
		return fmt.Errorf("ir: program %q has no function", p.Name)
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: function %q has no blocks", f.Name)
	}
	checkReg := func(r Reg, where string) error {
		if r < 0 || int(r) >= len(f.Regs) {
			return fmt.Errorf("ir: %s: register %d out of range", where, r)
		}
		return nil
	}
	// Terminator targets are block indices throughout the toolchain (the
	// CFG, liveness, and the interpreters all index Blocks by Then/Else),
	// so a block's ID must equal its slice position.
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("ir: %s: block at index %d has ID %d", f.Name, i, b.ID)
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			where := fmt.Sprintf("%s block %d instr %d (%s)", f.Name, b.ID, i, in.Kind)
			if in.Kind.IsTerminator() {
				return fmt.Errorf("ir: %s: terminator kind inside block body", where)
			}
			for _, r := range in.Dst {
				if err := checkReg(r, where); err != nil {
					return err
				}
			}
			for _, r := range in.Args {
				if err := checkReg(r, where); err != nil {
					return err
				}
			}
			if err := p.validateInstr(f, in, where); err != nil {
				return err
			}
		}
		t := &b.Term
		where := fmt.Sprintf("%s block %d terminator (%s)", f.Name, b.ID, t.Kind)
		if !t.Kind.IsTerminator() {
			if isZeroInstr(t) {
				return fmt.Errorf("ir: %s block %d: missing terminator", f.Name, b.ID)
			}
			return fmt.Errorf("ir: %s: non-terminator kind as terminator", where)
		}
		switch t.Kind {
		case Jump:
			if len(t.Args) != 0 {
				return fmt.Errorf("ir: %s: jump takes no arguments", where)
			}
			if t.Then < 0 || t.Then >= len(f.Blocks) {
				return fmt.Errorf("ir: %s: target block %d does not exist", where, t.Then)
			}
		case Branch:
			if len(t.Args) != 1 {
				return fmt.Errorf("ir: %s: branch needs one condition", where)
			}
			if err := checkReg(t.Args[0], where); err != nil {
				return err
			}
			if f.RegType(t.Args[0]) != Bool {
				return fmt.Errorf("ir: %s: condition is %s, want bool", where, f.RegType(t.Args[0]))
			}
			if t.Then < 0 || t.Then >= len(f.Blocks) || t.Else < 0 || t.Else >= len(f.Blocks) {
				return fmt.Errorf("ir: %s: target blocks %d/%d do not exist", where, t.Then, t.Else)
			}
		case Send, Drop, ToNext:
			if len(t.Args) != 0 {
				return fmt.Errorf("ir: %s: %s takes no arguments", where, t.Kind)
			}
		}
	}
	return nil
}

// isZeroInstr reports whether the instruction is the zero value — the
// signature of a block whose terminator was never set (the builder's
// placeholder is an explicit Drop, so a zero value means a hand-built
// block was left open).
func isZeroInstr(in *Instr) bool {
	return in.Kind == Const && in.Dst == nil && in.Args == nil &&
		in.Imm == 0 && in.Obj == "" && in.Then == 0 && in.Else == 0
}

func (p *Program) validateInstr(f *Function, in *Instr, where string) error {
	needDst := func(n int) error {
		if len(in.Dst) != n {
			return fmt.Errorf("ir: %s: want %d dsts, have %d", where, n, len(in.Dst))
		}
		return nil
	}
	needArgs := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("ir: %s: want %d args, have %d", where, n, len(in.Args))
		}
		return nil
	}
	global := func(k GlobalKind) (*Global, error) {
		g := p.Global(in.Obj)
		if g == nil {
			return nil, fmt.Errorf("ir: %s: unknown global %q", where, in.Obj)
		}
		if g.Kind != k {
			return nil, fmt.Errorf("ir: %s: global %q is %s, want %s", where, in.Obj, g.Kind, k)
		}
		return g, nil
	}
	field := func() error {
		if _, ok := packet.LookupField(in.Obj); !ok {
			return fmt.Errorf("ir: %s: unknown header field %q", where, in.Obj)
		}
		return nil
	}
	switch in.Kind {
	case Const:
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(0)
	case BinOp:
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(2)
	case Not, Convert:
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(1)
	case LoadHeader:
		if err := field(); err != nil {
			return err
		}
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(0)
	case StoreHeader:
		if err := field(); err != nil {
			return err
		}
		if err := needDst(0); err != nil {
			return err
		}
		return needArgs(1)
	case PayloadMatch:
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(0)
	case Hash:
		if err := needDst(1); err != nil {
			return err
		}
		if len(in.Args) == 0 {
			return fmt.Errorf("ir: %s: hash needs at least one argument", where)
		}
		return nil
	case MapFind:
		g, err := global(KindMap)
		if err != nil {
			return err
		}
		if err := needArgs(len(g.KeyTypes)); err != nil {
			return err
		}
		return needDst(1 + len(g.ValTypes))
	case MapInsert:
		g, err := global(KindMap)
		if err != nil {
			return err
		}
		if err := needDst(0); err != nil {
			return err
		}
		return needArgs(len(g.KeyTypes) + len(g.ValTypes))
	case MapRemove:
		g, err := global(KindMap)
		if err != nil {
			return err
		}
		if err := needDst(0); err != nil {
			return err
		}
		return needArgs(len(g.KeyTypes))
	case VecGet:
		if _, err := global(KindVec); err != nil {
			return err
		}
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(1)
	case VecLen:
		if _, err := global(KindVec); err != nil {
			return err
		}
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(0)
	case GlobalLoad:
		if _, err := global(KindScalar); err != nil {
			return err
		}
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(0)
	case GlobalStore:
		if _, err := global(KindScalar); err != nil {
			return err
		}
		if err := needDst(0); err != nil {
			return err
		}
		return needArgs(1)
	case LpmFind:
		g, err := global(KindLPM)
		if err != nil {
			return err
		}
		if err := needArgs(1); err != nil {
			return err
		}
		return needDst(1 + len(g.ValTypes))
	case XferLoad:
		if err := needDst(1); err != nil {
			return err
		}
		return needArgs(0)
	case XferStore:
		if err := needDst(0); err != nil {
			return err
		}
		return needArgs(1)
	}
	return fmt.Errorf("ir: %s: unknown kind", where)
}
