package difftest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// The compiled executor (ir.CompileFunc) runs every partition in the
// switch and server runtimes; the reference interpreter (ir.ExecFunc)
// defines what those partitions mean. The tests below run both on the
// same inputs — every partition of the nine bundled middleboxes and of
// the generator's programs — and require the same action, step count,
// packet bytes, transfer slots, state accesses, final state and error
// text, with writable state and with the switch's read-only refusals.

// stateCall is one StateAccess call and its result.
type stateCall struct {
	Op   string
	Name string
	Key  ir.MapKey
	Arg  uint64
	Vals []uint64
	OK   bool
	Err  string
}

// callLog records every state access of one execution and forwards it to
// the underlying state. With readOnly set it refuses writes the way the
// switch data plane does.
type callLog struct {
	st       *ir.State
	readOnly bool
	calls    []stateCall
}

var errReadOnly = errors.New("data plane attempted a write to read-only state")

func (l *callLog) log(c stateCall, err error) error {
	if err != nil {
		c.Err = err.Error()
	}
	l.calls = append(l.calls, c)
	return err
}

func (l *callLog) MapFind(g *ir.Global, key ir.MapKey) ([]uint64, bool) {
	vals, ok := l.st.MapFind(g, key)
	l.log(stateCall{Op: "find", Name: g.Name, Key: key, Vals: vals, OK: ok}, nil)
	return vals, ok
}

func (l *callLog) MapInsert(g *ir.Global, key ir.MapKey, vals []uint64) error {
	if l.readOnly {
		return l.log(stateCall{Op: "insert", Name: g.Name, Key: key, Vals: vals}, errReadOnly)
	}
	return l.log(stateCall{Op: "insert", Name: g.Name, Key: key, Vals: vals}, l.st.MapInsert(g, key, vals))
}

func (l *callLog) MapRemove(g *ir.Global, key ir.MapKey) error {
	if l.readOnly {
		return l.log(stateCall{Op: "remove", Name: g.Name, Key: key}, errReadOnly)
	}
	return l.log(stateCall{Op: "remove", Name: g.Name, Key: key}, l.st.MapRemove(g, key))
}

func (l *callLog) VecGet(g *ir.Global, idx uint64) (uint64, error) {
	v, err := l.st.VecGet(g, idx)
	return v, l.log(stateCall{Op: "vecget", Name: g.Name, Arg: idx, Vals: []uint64{v}}, err)
}

func (l *callLog) VecLen(g *ir.Global) uint64 {
	n := l.st.VecLen(g)
	l.log(stateCall{Op: "veclen", Name: g.Name, Arg: n}, nil)
	return n
}

func (l *callLog) GlobalLoad(g *ir.Global) uint64 {
	v := l.st.GlobalLoad(g)
	l.log(stateCall{Op: "gload", Name: g.Name, Arg: v}, nil)
	return v
}

func (l *callLog) GlobalStore(g *ir.Global, v uint64) error {
	if l.readOnly {
		return l.log(stateCall{Op: "gstore", Name: g.Name, Arg: v}, errReadOnly)
	}
	return l.log(stateCall{Op: "gstore", Name: g.Name, Arg: v}, l.st.GlobalStore(g, v))
}

func (l *callLog) LpmFind(g *ir.Global, key uint64) ([]uint64, bool) {
	vals, ok := l.st.LpmFind(g, key)
	l.log(stateCall{Op: "lpm", Name: g.Name, Arg: key, Vals: vals, OK: ok}, nil)
	return vals, ok
}

// execOutcome is everything one execution can observably do.
type execOutcome struct {
	Res   ir.Result
	Err   string
	Pkt   []byte
	Xfer  []uint64
	Calls []stateCall

	state *ir.State
	pkt   *packet.Packet
}

// execute runs one executor on private copies of the inputs. regs seeds
// the reusable register file, so a compiled run starting from a dirty
// buffer proves it clears what it reads.
func execute(run func(*ir.Env) (ir.Result, error), st *ir.State, pkt *packet.Packet, xfer []uint64, readOnly bool, regs []uint64) execOutcome {
	o := execOutcome{state: st.Clone(), pkt: pkt.Clone()}
	if xfer != nil {
		o.Xfer = append([]uint64{}, xfer...)
	}
	l := &callLog{st: o.state, readOnly: readOnly}
	r, err := run(&ir.Env{State: o.state, Access: l, Pkt: o.pkt, Xfer: o.Xfer, Regs: regs})
	o.Res, o.Calls = r, l.calls
	if err != nil {
		o.Err = err.Error()
	}
	o.Pkt = o.pkt.Clone().Serialize()
	return o
}

// dirtyRegs is a register buffer full of garbage.
func dirtyRegs() []uint64 {
	regs := make([]uint64, 256)
	for i := range regs {
		regs[i] = 0xDEAD0000 + uint64(i)
	}
	return regs
}

// compareExec runs fn both ways and returns the reference outcome, or an
// error describing the first difference.
func compareExec(p *ir.Program, fn *ir.Function, c *ir.Compiled, st *ir.State, pkt *packet.Packet, xfer []uint64, readOnly bool) (execOutcome, error) {
	ref := execute(func(e *ir.Env) (ir.Result, error) { return ir.ExecFunc(p, fn, e) }, st, pkt, xfer, readOnly, nil)
	got := execute(c.Run, st, pkt, xfer, readOnly, dirtyRegs())
	switch {
	case ref.Err != got.Err:
		return ref, fmt.Errorf("error: reference %q, compiled %q", ref.Err, got.Err)
	case ref.Res != got.Res:
		return ref, fmt.Errorf("result: reference %+v, compiled %+v", ref.Res, got.Res)
	case !reflect.DeepEqual(ref.Calls, got.Calls):
		return ref, fmt.Errorf("state accesses:\nreference %+v\ncompiled  %+v", ref.Calls, got.Calls)
	case string(ref.Pkt) != string(got.Pkt):
		return ref, fmt.Errorf("packet bytes differ")
	case !reflect.DeepEqual(ref.Xfer, got.Xfer):
		return ref, fmt.Errorf("transfer slots: reference %v, compiled %v", ref.Xfer, got.Xfer)
	case !ref.state.Equal(got.state):
		return ref, fmt.Errorf("final state differs")
	}
	return ref, nil
}

// compiledPartitions compiles the full program and each partition once.
type compiledPartitions struct {
	res                  *partition.Result
	full, pre, srv, post *ir.Compiled
	fullFn               *ir.Function
}

func compilePartitions(res *partition.Result) *compiledPartitions {
	return &compiledPartitions{
		res:    res,
		fullFn: res.Prog.Fn,
		full:   ir.CompileFunc(res.Prog, res.Prog.Fn),
		pre:    ir.CompileFunc(res.Prog, res.PreFn),
		srv:    ir.CompileFunc(res.Prog, res.SrvFn),
		post:   ir.CompileFunc(res.Prog, res.PostFn),
	}
}

// checkTrace replays a trace through the full program and through the
// pre → server → post pipeline (one shared state, as
// partition.ExecPipeline runs it), comparing both executors at every
// step; every function also runs once against read-only state.
func (cp *compiledPartitions) checkTrace(tr *Trace, setup func(*ir.State)) error {
	res, p := cp.res, cp.res.Prog
	full := ir.NewState(p)
	setup(full)
	part := full.Clone()
	stages := []struct {
		name string
		fn   *ir.Function
		c    *ir.Compiled
	}{{"pre", res.PreFn, cp.pre}, {"srv", res.SrvFn, cp.srv}, {"post", res.PostFn, cp.post}}
	for i := range tr.Packets {
		pkt := tr.Build(i)
		for _, ro := range []bool{false, true} {
			o, err := compareExec(p, cp.fullFn, cp.full, full, pkt, nil, ro)
			if err != nil {
				return fmt.Errorf("packet %d: full program (read-only %v): %w", i, ro, err)
			}
			if !ro {
				full = o.state
			}
		}
		cur, xfer := pkt, make([]uint64, res.NumXferSlots)
		for _, s := range stages {
			if _, err := compareExec(p, s.fn, s.c, part, cur, xfer, true); err != nil {
				return fmt.Errorf("packet %d: %s partition (read-only): %w", i, s.name, err)
			}
			o, err := compareExec(p, s.fn, s.c, part, cur, xfer, false)
			if err != nil {
				return fmt.Errorf("packet %d: %s partition: %w", i, s.name, err)
			}
			if o.Err != "" || o.Res.Action != ir.ActionNext {
				break
			}
			part, cur, xfer = o.state, o.pkt, o.Xfer
		}
	}
	return nil
}

// TestCompiledMatchesReferenceMiddleboxes checks every partition of the
// nine bundled middleboxes on v4, v6, MSS-carrying and tunnelled traffic.
func TestCompiledMatchesReferenceMiddleboxes(t *testing.T) {
	for _, spec := range middleboxes.Extended() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			art, err := gallium.Compile(spec.Source, gallium.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cp := compilePartitions(art.Res)
			for seed := uint64(0); seed < 6; seed++ {
				tr := GenTrace(seed, 48)
				r := newRNG(seed)
				v6ify(tr, r, 30)
				addMSS(tr, r)
				if seed%2 == 1 {
					encapify(tr, r)
				}
				setup := func(st *ir.State) {
					middleboxes.ConfigureState(spec.Name, st)
					if spec.Name == "firewall" && seed%3 != 0 {
						for _, tup := range tr.Tuples() {
							middleboxes.AllowFlow(st, tup)
						}
					}
				}
				if err := cp.checkTrace(tr, setup); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestCompiledMatchesReferenceGenerated checks every partition of the
// differential generator's programs over the same seed range as
// TestDifferentialFuzz.
func TestCompiledMatchesReferenceGenerated(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	const chunk = 50
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t.Run(fmt.Sprintf("seeds=%d-%d", lo, hi-1), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(lo); seed < uint64(hi); seed++ {
				c := GenCase(seed, DefaultTraceLen)
				art, err := gallium.Compile(c.Spec.Render(), gallium.Options{})
				if err != nil {
					t.Fatalf("seed %d: compile: %v", seed, err)
				}
				if err := compilePartitions(art.Res).checkTrace(c.Trace, c.Spec.Setup); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
