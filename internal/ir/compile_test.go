package ir

import (
	"strings"
	"testing"

	"gallium/internal/packet"
)

// runBoth executes fn with the reference interpreter and the compiled
// executor on private copies of st and pkt, and fails the test unless
// result, error text, final state and packet agree.
func runBoth(t *testing.T, p *Program, fn *Function, st *State, pkt *packet.Packet, xfer []uint64) (Result, error) {
	t.Helper()
	refSt, refPkt := st.Clone(), pkt.Clone()
	ref, refErr := ExecFunc(p, fn, &Env{State: refSt, Pkt: refPkt, Xfer: append([]uint64(nil), xfer...)})
	gotSt, gotPkt := st.Clone(), pkt.Clone()
	got, gotErr := CompileFunc(p, fn).Run(&Env{State: gotSt, Pkt: gotPkt, Xfer: append([]uint64(nil), xfer...)})
	if errText(refErr) != errText(gotErr) {
		t.Fatalf("error: reference %q, compiled %q", errText(refErr), errText(gotErr))
	}
	if ref != got {
		t.Fatalf("result: reference %+v, compiled %+v", ref, got)
	}
	if !refSt.Equal(gotSt) {
		t.Fatal("final state differs")
	}
	if string(refPkt.Serialize()) != string(gotPkt.Serialize()) {
		t.Fatal("packet differs")
	}
	return ref, refErr
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCompiledStepLimitMidBlock runs an infinite loop whose body does not
// divide the step limit, so the limit fires inside a block: the compiled
// executor must stop at the same instruction, leaving the same counter.
func TestCompiledStepLimitMidBlock(t *testing.T) {
	g := &Global{Name: "n", Kind: KindScalar, ValTypes: []Type{U32}}
	b := NewBuilder("spin")
	loop := b.NewBlock()
	b.Jump(loop)
	b.SetBlock(loop)
	one := b.Const("one", U32, 1)
	v := b.GlobalLoad("v", g)
	w := b.BinOp("w", Add, v, one)
	b.GlobalStore(g, w)
	b.Const("pad", U32, 7)
	b.Jump(loop)
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "spin", Globals: []*Global{g}, Fn: fn}
	st := NewState(p)
	_, err := runBoth(t, p, fn, st, packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{}), nil)
	if err == nil {
		t.Fatal("want step-limit error")
	}
}

// TestCompiledFaultsMatchReference covers the run-time failures: division
// and modulo by zero, vector bounds, missing transfer context, and
// instructions naming unknown globals, header fields or kinds (which
// Validate rejects, but hand-built IR can still carry).
func TestCompiledFaultsMatchReference(t *testing.T) {
	vec := &Global{Name: "v", Kind: KindVec, ValTypes: []Type{U32}}
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"div by zero", func(b *Builder) {
			x, z := b.Const("x", U32, 9), b.Const("z", U32, 0)
			b.BinOp("q", Div, x, z)
		}, "division by zero"},
		{"mod by zero", func(b *Builder) {
			x, z := b.Const("x", U32, 9), b.Const("z", U32, 0)
			b.BinOp("q", Mod, x, z)
		}, "modulo by zero"},
		{"vector out of range", func(b *Builder) {
			b.VecGet("e", vec, b.Const("i", U32, 5))
		}, "out of range"},
		{"xferload without context", func(b *Builder) {
			b.XferLoad("x", "f", U32)
		}, "no transfer context"},
		{"unknown global", func(b *Builder) {
			d := b.NewReg("d", U32)
			b.emit(Instr{Kind: GlobalLoad, Dst: []Reg{d}, Obj: "nosuch"})
		}, `unknown global "nosuch"`},
		{"unknown header field", func(b *Builder) {
			d := b.NewReg("d", U32)
			b.emit(Instr{Kind: LoadHeader, Dst: []Reg{d}, Obj: "ip.nosuch"})
		}, `unknown header field "ip.nosuch"`},
		{"unexecutable kind", func(b *Builder) {
			b.emit(Instr{Kind: Kind(200)})
		}, "cannot execute"},
		{"all shifts and comparisons", func(b *Builder) {
			x, y := b.Const("x", U16, 0xF00F), b.Const("y", U8, 3)
			big := b.Const("big", U8, 70)
			for _, op := range []Op{Add, Sub, And, Or, Xor, Shl, Shr, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge} {
				b.StoreHeader("ip.saddr", b.BinOp("r", op, x, y))
				b.StoreHeader("ip.daddr", b.BinOp("s", op, y, x))
			}
			b.StoreHeader("tcp.seq", b.BinOp("l", Shl, x, big))
			b.StoreHeader("tcp.ack", b.BinOp("r", Shr, x, big))
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.name)
			tc.build(b)
			b.Send()
			fn := b.Fn()
			fn.Finalize()
			p := &Program{Name: "faults", Globals: []*Global{vec}, Fn: fn}
			st := NewState(p)
			st.Vecs["v"] = []uint64{1, 2}
			_, err := runBoth(t, p, fn, st, packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{}), nil)
			if got := errText(err); tc.want == "" && got != "" || tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("error %q, want %q", got, tc.want)
			}
		})
	}
}
