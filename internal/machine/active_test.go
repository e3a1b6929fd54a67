package machine_test

// The active-node set (active.go) is derived from the parking state;
// these tests check that it stays exact — Machine.ActiveSetErr, after
// every stepped cycle — on meshes wider than one 64-node word, through
// every path that changes parking: the sweep itself, sharded slabs,
// chaos freeze/thaw/kill (the sync hook), host injection, the public
// Step, fast-path toggles, and checkpoint restore. Each run must also
// end in the state of an unobserved sequential run.

import (
	"fmt"
	"testing"

	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/chaos"
	"jmachine/internal/ckpt"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/word"
)

// setWatch checks the active-node set at the start of every stepped
// cycle (the state the previous cycle left) and records the first
// violation.
type setWatch struct {
	m        *machine.Machine
	err      error
	checks   int
	maxWheel int // most parked nodes seen waiting in the timer wheels
}

func watchActiveSet(m *machine.Machine) *setWatch {
	w := &setWatch{m: m}
	m.AddCycleHook(w.check, func(int64) int64 { return machine.NoEvent }) //jm:horizon reads host-side bookkeeping only, never simulated state
	return w
}

func (w *setWatch) check(cycle int64) {
	w.checks++
	w.maxWheel = max(w.maxWheel, w.m.WheelEntries())
	if w.err == nil {
		if err := w.m.ActiveSetErr(); err != nil {
			w.err = fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
}

// verify checks once more and fails the test on any recorded violation
// or when the run was too short, or too idle, to exercise the set.
func (w *setWatch) verify(t *testing.T, wantTimed bool) {
	t.Helper()
	w.check(w.m.Cycle())
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.checks < 100 {
		t.Fatalf("only %d cycles checked", w.checks)
	}
	if wantTimed && w.maxWheel == 0 {
		t.Fatal("no parked node ever waited in a timer wheel")
	}
}

// endState is what a run must reproduce: its final cycle and digest.
type endState struct {
	cycle  int64
	digest uint64
}

func endOf(m *machine.Machine) endState { return endState{m.Cycle(), m.StateDigest()} }

const (
	setNodes = 128 // two words per bitset; seven shards cut it off word boundaries
	setKeys  = 1024
)

func radixParams(setup func(*machine.Machine, *rt.Runtime), preRun func(*machine.Machine) error) radix.Params {
	return radix.Params{Keys: setKeys, Seed: 11, Setup: setup, PreRun: preRun}
}

// radixRef is the unobserved sequential run every variant must match.
func radixRef(t *testing.T) endState {
	t.Helper()
	r, err := radix.Run(setNodes, radixParams(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	return endOf(r.M)
}

func TestActiveSetSequential(t *testing.T) {
	var w *setWatch
	r, err := radix.Run(setNodes, radixParams(func(m *machine.Machine, _ *rt.Runtime) { w = watchActiveSet(m) }, nil))
	if err != nil {
		t.Fatal(err)
	}
	w.verify(t, true)

	q, err := nqueens.Run(setNodes, nqueens.Params{N: 8,
		Setup: func(m *machine.Machine, _ *rt.Runtime) { w = watchActiveSet(m) }})
	if err != nil {
		t.Fatal(err)
	}
	w.verify(t, false)
	if q.Solutions != nqueens.Reference(8) {
		t.Errorf("nqueens found %d solutions, want %d", q.Solutions, nqueens.Reference(8))
	}
	if r.M.NodeSlabCount() != 1 {
		t.Errorf("sequential machine has %d slabs", r.M.NodeSlabCount())
	}
}

func TestActiveSetSharded(t *testing.T) {
	want := radixRef(t)
	for _, k := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			var w *setWatch
			var eng *engine.Engine
			r, err := radix.Run(setNodes, radixParams(func(m *machine.Machine, _ *rt.Runtime) {
				w = watchActiveSet(m)
				eng = engine.AttachCfg(m, k, engine.Config{ParallelWork: 1})
				if got := m.NodeSlabCount(); got != k {
					t.Errorf("%d shards registered %d slabs", k, got)
				}
			}, nil))
			if err != nil {
				t.Fatal(err)
			}
			w.verify(t, true)
			eng.Stop()
			if got := r.M.NodeSlabCount(); got != 1 {
				t.Errorf("after Stop: %d slabs, want 1", got)
			}
			if err := r.M.ActiveSetErr(); err != nil {
				t.Fatalf("after Stop: %v", err)
			}
			if got := endOf(r.M); got != want {
				t.Errorf("end state %+v, sequential %+v", got, want)
			}
		})
	}
}

func TestActiveSetChaos(t *testing.T) {
	// Freezes (thawed by expiry) across both bitset words, and late
	// kills: every one passes through the per-node sync hook, parked
	// or not. N-Queens is message-driven, so a kill that strands work
	// leaves an idle wedge the watchdog ends quickly; only the set is
	// checked.
	camp := chaos.Campaign{Name: "freeze-kill"}
	for i, node := range []int{1, 5, 62, 63, 64, 65, 90, 127} {
		camp.Events = append(camp.Events, chaos.Event{Kind: chaos.NodeFreeze,
			Cycle: int64(200 + 150*i), Node: node, Duration: int64(40 + 97*i)})
	}
	camp.Events = append(camp.Events,
		chaos.Event{Kind: chaos.NodeKill, Cycle: 2500, Node: 70},
		chaos.Event{Kind: chaos.NodeKill, Cycle: 2600, Node: 3})
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			var w *setWatch
			var inj *chaos.Injector
			var eng *engine.Engine
			_, _ = nqueens.Run(setNodes, nqueens.Params{N: 8, Setup: func(m *machine.Machine, _ *rt.Runtime) {
				m.SetWatchdog(5_000)
				inj = chaos.Attach(m, camp)
				w = watchActiveSet(m)
				eng = engine.AttachCfg(m, k, engine.Config{ParallelWork: 1})
			}})
			eng.Stop()
			w.verify(t, true)
			if inj.Applied(chaos.NodeFreeze) != 8 || inj.Applied(chaos.NodeKill) != 2 {
				t.Errorf("campaign applied %d freezes and %d kills, want 8 and 2",
					inj.Applied(chaos.NodeFreeze), inj.Applied(chaos.NodeKill))
			}
		})
	}
}

func TestActiveSetInjectStepAndToggle(t *testing.T) {
	// Drive a running radix machine by hand from its PreRun hook, then
	// let the run finish: a host injection into a node parked in a
	// timer wheel, and a freeze of another (the sync hook), both early
	// wakes; injections on both sides of a word boundary; public single
	// steps (which unpark every node); and fast-path toggles, each
	// checked before the next cycle. The injected message runs the
	// runtime's one-word ack handler, which only stamps a completion
	// flag radix never reads; the end state is compared against a
	// second run with the same script.
	script := func(t *testing.T, check bool) func(m *machine.Machine) error {
		return func(m *machine.Machine) error {
			at := func(what string) {
				if !check {
					return
				}
				if err := m.ActiveSetErr(); err != nil {
					t.Fatalf("%s (cycle %d): %v", what, m.Cycle(), err)
				}
			}
			m.StepN(400)
			at("StepN")
			for i := 0; len(m.TimedParked()) < 2 && i < 1000; i++ {
				m.StepN(1)
			}
			timed := m.TimedParked()
			if len(timed) < 2 {
				t.Fatalf("fewer than two nodes parked in a timer wheel by cycle %d", m.Cycle())
			}
			ack := []word.Word{word.MsgHeader(m.Nodes[0].Prog.Entry(rt.LAck), 1)}
			for _, node := range []int{timed[0], 0, 63, 64, 65, 127} {
				if !m.Inject(node, 1, ack) {
					t.Fatalf("inject into node %d refused", node)
				}
				at(fmt.Sprintf("Inject into node %d", node))
			}
			frozen := m.Nodes[timed[1]]
			frozen.SetFrozen(true)
			at(fmt.Sprintf("freezing node %d", timed[1]))
			for i := 0; i < 5; i++ {
				m.Step()
				at("Step")
			}
			frozen.SetFrozen(false)
			at(fmt.Sprintf("thawing node %d", timed[1]))
			m.StepN(300)
			at("StepN")
			m.SetFastPath(false)
			at("SetFastPath(false)")
			m.StepN(50)
			at("StepN, fast path off")
			m.SetFastPath(true)
			at("SetFastPath(true)")
			m.StepN(300)
			at("StepN, fast path on")
			return nil
		}
	}
	var w *setWatch
	r, err := radix.Run(setNodes, radixParams(func(m *machine.Machine, _ *rt.Runtime) { w = watchActiveSet(m) }, script(t, true)))
	if err != nil {
		t.Fatal(err)
	}
	w.verify(t, true)
	plain, err := radix.Run(setNodes, radixParams(nil, script(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := endOf(r.M), endOf(plain.M); got != want {
		t.Errorf("end state %+v, unobserved %+v", got, want)
	}
}

func TestActiveSetCheckpointRestore(t *testing.T) {
	// Capture mid-run from a cycle hook, restore into a freshly built
	// machine before its run loop, and require the set to be rebuilt
	// exactly and the run to end where the uninterrupted one did.
	const at = 3001
	want := radixRef(t)
	var snap *ckpt.Snapshot
	_, err := radix.Run(setNodes, radixParams(func(m *machine.Machine, r *rt.Runtime) {
		m.AddCycleHook(func(c int64) { //jm:horizon fires once, at the capture cycle
			if c == at {
				snap = ckpt.Capture(m, r)
			}
		}, func(now int64) int64 {
			if now < at {
				return at
			}
			return machine.NoEvent
		})
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	for _, k := range []int{1, 7} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			var w *setWatch
			var rtm *rt.Runtime
			var eng *engine.Engine
			var restoredWheel int
			r, err := radix.Run(setNodes, radixParams(func(m *machine.Machine, r *rt.Runtime) {
				rtm = r
				w = watchActiveSet(m)
				eng = engine.AttachCfg(m, k, engine.Config{ParallelWork: 1})
			}, func(m *machine.Machine) error {
				if err := ckpt.Restore(m, snap, rtm); err != nil {
					return err
				}
				restoredWheel = m.WheelEntries()
				return m.ActiveSetErr()
			}))
			eng.Stop()
			if err != nil {
				t.Fatal(err)
			}
			w.verify(t, true)
			if restoredWheel == 0 {
				t.Error("the checkpoint restored no timed parked node; pick another capture cycle")
			}
			if got := endOf(r.M); got != want {
				t.Errorf("end state %+v, uninterrupted %+v", got, want)
			}
		})
	}
}
