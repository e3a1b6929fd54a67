package machine

// Tests for the event-horizon fast path: the active set, the wake
// calendar, bulk idle skip, and — above all — byte-identical state
// versus the every-node-every-cycle reference loop. The engine package
// re-proves the same contract at workload scale; these tests pin the
// mechanism at machine scale where individual parks are visible.

import (
	"strings"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/ckpt/wire"
	"jmachine/internal/isa"
	"jmachine/internal/word"
)

// busyIdleProg: "main" spins a counted loop then halts; nodes that are
// never started stay idle and should park.
func busyIdleProg(iters int32) *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.R0, iters).
		Label("loop").
		Sub(isa.R0, asm.Imm(1)).
		Bt(isa.R0, "loop").
		Halt()
	return b.MustAssemble()
}

// refPair builds two identical machines, one with the fast path
// disabled (the reference), one with it on (the default).
func refPair(t *testing.T, nodes int, p *asm.Program) (ref, fast *Machine) {
	t.Helper()
	var err error
	if ref, err = New(GridForNodes(nodes), p); err != nil {
		t.Fatal(err)
	}
	ref.SetFastPath(false)
	if fast, err = New(GridForNodes(nodes), p); err != nil {
		t.Fatal(err)
	}
	return ref, fast
}

// compareState requires the two machines to agree on clock and digest.
func compareState(t *testing.T, label string, ref, fast *Machine) {
	t.Helper()
	if ref.Cycle() != fast.Cycle() {
		t.Errorf("%s: cycle %d (reference) vs %d (fast path)", label, ref.Cycle(), fast.Cycle())
	}
	if rd, fd := ref.StateDigest(), fast.StateDigest(); rd != fd {
		t.Errorf("%s: digest %#x (reference) vs %#x (fast path)", label, rd, fd)
	}
}

func TestFastPathDigestEquivalence(t *testing.T) {
	p := busyIdleProg(40)
	ref, fast := refPair(t, 8, p)
	for _, m := range []*Machine{ref, fast} {
		m.Nodes[0].StartBackground(p.Entry("main"))
		m.Nodes[5].StartBackground(p.Entry("main"))
	}
	// Compare at several boundaries: mid-compute, just after the halts,
	// and deep into the all-idle tail where the fast path skips in bulk.
	for _, span := range []int64{17, 100, 5000} {
		ref.StepN(span)
		fast.StepN(span)
		compareState(t, "StepN", ref, fast)
	}
}

func TestFastPathGlobalSkip(t *testing.T) {
	// Nothing ever starts: after the first cycle every node parks and
	// StepN crosses the whole span in a handful of stepped cycles.
	p := busyIdleProg(1)
	ref, fast := refPair(t, 8, p)
	ref.StepN(10_000)
	fast.StepN(10_000)
	compareState(t, "all-idle", ref, fast)
	if got := fast.nParked.Load(); got != int64(len(fast.Nodes)) {
		t.Errorf("parked %d of %d nodes", got, len(fast.Nodes))
	}
	if fast.Cycle() != 10_000 {
		t.Errorf("cycle = %d, want 10000", fast.Cycle())
	}
}

func TestAddCycleFnPinsSingleCycleMode(t *testing.T) {
	m, err := New(GridForNodes(4), busyIdleProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !m.FastPathActive() {
		t.Fatal("fast path should be on by default")
	}
	var calls int64
	m.AddCycleFn(func(cycle int64) { calls++ })
	if m.FastPathActive() {
		t.Error("legacy per-cycle hook did not pin the machine")
	}
	m.StepN(500)
	if calls != 500 {
		t.Errorf("pinned hook ran %d times over 500 cycles", calls)
	}
}

func TestAddCycleHookHonoursCadence(t *testing.T) {
	m, err := New(GridForNodes(4), busyIdleProg(1))
	if err != nil {
		t.Fatal(err)
	}
	const cadence = 100
	var fired []int64
	var stepped int64
	m.AddCycleHook(
		func(cycle int64) {
			stepped++
			if cycle%cadence == 0 {
				fired = append(fired, cycle)
			}
		},
		func(now int64) int64 { return (now/cadence + 1) * cadence },
	)
	if !m.FastPathActive() {
		t.Fatal("a horizon-aware hook must not pin the machine")
	}
	m.StepN(1000)
	want := []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	if len(fired) != len(want) {
		t.Fatalf("hook acted at cycles %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hook acted at cycles %v, want %v", fired, want)
		}
	}
	// The machine is idle: nearly every inter-boundary cycle should have
	// been skipped rather than stepped.
	if stepped > 100 {
		t.Errorf("hook saw %d stepped cycles over a 1000-cycle idle span", stepped)
	}
}

func TestExternalQueuePushWakesParkedNode(t *testing.T) {
	p := busyIdleProg(1)
	m, err := New(GridForNodes(4), p)
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(1000) // everything parks
	if got := m.nParked.Load(); got != int64(len(m.Nodes)) {
		t.Fatalf("parked %d of %d nodes", got, len(m.Nodes))
	}
	// A test-style external mutation: a message pushed straight into a
	// node's hardware queue, with no wake signal from the network.
	m.Nodes[2].Queues[0].Push(word.MsgHeader(p.Entry("main"), 1))
	m.StepN(100)
	if !m.Nodes[2].Halted() {
		t.Error("parked node never dispatched the externally pushed message")
	}
}

func TestSetFastPathOffKeepsEveryNodeLive(t *testing.T) {
	m, err := New(GridForNodes(4), busyIdleProg(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetFastPath(false)
	if m.FastPathActive() {
		t.Fatal("SetFastPath(false) ignored")
	}
	m.StepN(200)
	if got := m.nParked.Load(); got != 0 {
		t.Errorf("reference mode parked %d nodes", got)
	}
}

func TestFastPathWatchdogTripsAtReferenceCycle(t *testing.T) {
	// A machine with work wedged behind a frozen node: the watchdog must
	// trip at the same cycle whether or not idle spans are skipped.
	p := busyIdleProg(1)
	trip := func(fastOn bool) (int64, error) {
		m, err := New(GridForNodes(4), p)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFastPath(fastOn)
		m.SetWatchdog(1000)
		m.Nodes[1].SetFrozen(true)
		m.Nodes[1].Queues[0].Push(word.MsgHeader(p.Entry("main"), 1))
		err = m.RunQuiescent(50_000)
		return m.Cycle(), err
	}
	refCycle, refErr := trip(false)
	fastCycle, fastErr := trip(true)
	if refCycle != fastCycle {
		t.Errorf("watchdog tripped at cycle %d (reference) vs %d (fast path)", refCycle, fastCycle)
	}
	if (refErr == nil) != (fastErr == nil) {
		t.Errorf("errors diverged: %v vs %v", refErr, fastErr)
	}
}

func TestRestoreRejectsLapsedWake(t *testing.T) {
	// A parked node's wake always lies after the cycle a checkpoint
	// records (the capturing machine steps every due cycle), and the
	// active-node set files it in the timer wheel on that premise. A
	// checkpoint breaking it is refused rather than left to wake late.
	p := busyIdleProg(1)
	src := MustNew(GridForNodes(8), p)
	src.StepN(100) // every node idle and parked awaiting traffic
	good := wire.Encoder{}
	src.SaveState(&good)
	if err := MustNew(GridForNodes(8), p).RestoreState(wire.NewDecoder(good.Bytes())); err != nil {
		t.Fatalf("valid checkpoint refused: %v", err)
	}
	src.wakeAt[3] = src.Cycle()
	src.rebuildActive()
	bad := wire.Encoder{}
	src.SaveState(&bad)
	err := MustNew(GridForNodes(8), p).RestoreState(wire.NewDecoder(bad.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "node 3 wakes at cycle") {
		t.Fatalf("lapsed wake restored: err = %v", err)
	}
}
