package network

// The occupied-port mask invariant: after every cycle, bit q of a
// router's inMask[v] is set exactly when its input buffer in[v][q]
// holds a phit. The router step visits only the ports the mask names,
// so a stale clear bit would strand a phit and a stale set bit would
// read an empty buffer. Every path that pushes or pops a buffer is
// exercised: mesh hops, injection feeds and delivery under sequential
// stepping and both arbitration policies; staged boundary pushes under
// ShardRun; the absorb path of return-to-sender with MaxReturns drops;
// checksum drops and injected link stalls; and checkpoint restore.

import (
	"math/rand"
	"testing"

	"jmachine/internal/ckpt/wire"
)

// checkMask asserts the invariant at every router, priority and port.
func checkMask(t *testing.T, n *Network, cycle int) {
	t.Helper()
	for ri := range n.routers {
		r := &n.routers[ri]
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				if set, held := r.inMask[v]>>q&1 == 1, r.in[v][q].n > 0; set != held {
					t.Fatalf("cycle %d: router %d pri %d port %d: mask bit %v but buffer holds %d phits",
						cycle, ri, v, q, set, r.in[v][q].n)
				}
			}
		}
	}
}

// stepShards drives one cycle of the sharded protocol on one goroutine.
func stepShards(sr *ShardRun) {
	sr.Begin()
	for s := 0; s < sr.Shards(); s++ {
		sr.Snapshot(s)
	}
	for s := 0; s < sr.Shards(); s++ {
		sr.StepShard(s)
	}
	sr.Commit()
}

// maskRun injects randomTraffic for cycles cycles, then drains, checking
// the invariant after every step; it returns the final digest.
func maskRun(t *testing.T, n *Network, step func(), seed int64, cycles int) uint64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	checkMask(t, n, -1)
	c := 0
	for ; c < cycles; c++ {
		randomTraffic(r, n, n.Nodes())
		step()
		checkMask(t, n, c)
	}
	for ; c < cycles+50_000 && n.Pending(); c++ {
		step()
		checkMask(t, n, c)
	}
	if n.Pending() {
		t.Fatal("network did not drain")
	}
	for ri := range n.routers {
		if m := n.routers[ri].inMask; m != [2]uint8{} {
			t.Fatalf("drained router %d left mask %v", ri, m)
		}
	}
	return n.StateDigest()
}

func TestMaskSequential(t *testing.T) {
	for _, arb := range []Arbitration{FixedPriority, RoundRobin} {
		n, _ := makeNetCfg(t, Config{DimX: 4, DimY: 4, DimZ: 1, Arbitration: arb}, 1<<14)
		maskRun(t, n, n.Step, 7, 3000)
	}
}

func TestMaskSharded(t *testing.T) {
	for _, arb := range []Arbitration{FixedPriority, RoundRobin} {
		cfg := Config{DimX: 4, DimY: 4, DimZ: 1, Arbitration: arb}
		seq, _ := makeNetCfg(t, cfg, 1<<14)
		want := maskRun(t, seq, seq.Step, 11, 3000)
		for _, k := range []int{1, 2, 4, 7} {
			n, _ := makeNetCfg(t, cfg, 1<<14)
			sr := NewShardRun(n, k)
			if got := maskRun(t, n, func() { stepShards(sr) }, 11, 3000); got != want {
				t.Errorf("arbitration %d shards=%d: digest %#x, sequential %#x", arb, k, got, want)
			}
			sr.Close()
		}
	}
}

func TestMaskReturnToSender(t *testing.T) {
	// Tiny queues that are drained slowly: refused worms are absorbed
	// at the delivery port and turned around, and messages refused
	// MaxReturns times are absorbed and dropped.
	n, queues := makeNetCfg(t, Config{DimX: 4, DimY: 2, DimZ: 1,
		ReturnToSender: true, RTSBackoff: 8, MaxReturns: 2}, 8)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		src := r.Intn(n.Nodes())
		m := msgTo(n, r.Intn(2), r.Intn(2), 2+r.Intn(3))
		m.Src = int32(src)
		n.Inject(src, m, int32(r.Intn(8)))
	}
	for c := 0; c < 100_000 && n.Pending(); c++ {
		n.Step()
		checkMask(t, n, c)
		if c%16 == 0 {
			for i := range queues {
				for v := 0; v < 2; v++ {
					if queues[i][v].HeadReady() {
						queues[i][v].Pop()
					}
				}
			}
		}
	}
	if n.Pending() {
		t.Fatal("network did not drain")
	}
	st := n.Stats()
	if st.ReturnedMsgs == 0 || st.DroppedMsgs == 0 {
		t.Fatalf("absorb path not exercised: returned=%d dropped=%d", st.ReturnedMsgs, st.DroppedMsgs)
	}
}

func TestMaskChecksumAndStalls(t *testing.T) {
	// Corrupted worms are drained at the delivery port, and a link-fault
	// oracle blocks mesh hops, deliveries and injection feeds.
	n, _ := makeNetCfg(t, Config{DimX: 4, DimY: 4, DimZ: 1, Checksum: true}, 1<<14)
	n.SetStallFn(func(node, port int, cycle int64) bool {
		return (int64(node*7+port*3)+cycle)%5 == 0
	})
	r := rand.New(rand.NewSource(13))
	for c := 0; c < 2000; c++ {
		if r.Intn(3) == 0 {
			m := msgTo(n, r.Intn(n.Nodes()), r.Intn(2), 2+r.Intn(5))
			if r.Intn(4) == 0 {
				m.CorruptWord, m.CorruptMask = 1, 0x10
			}
			n.Inject(r.Intn(n.Nodes()), m, 0)
		}
		n.Step()
		checkMask(t, n, c)
	}
	for c := 0; c < 50_000 && n.Pending(); c++ {
		n.Step()
		checkMask(t, n, c)
	}
	st := n.Stats()
	if n.Pending() || st.CorruptDrops == 0 || st.StallsInjected == 0 {
		t.Fatalf("pending=%v corruptDrops=%d stalls=%d", n.Pending(), st.CorruptDrops, st.StallsInjected)
	}
}

func TestMaskCheckpointRestore(t *testing.T) {
	// Checkpoint mid-traffic into a network whose masks are garbage:
	// restore must rebuild them, and the restored network must then
	// step in lockstep with the original.
	cfg := Config{DimX: 4, DimY: 4, DimZ: 1}
	a, _ := makeNetCfg(t, cfg, 1<<14)
	r := rand.New(rand.NewSource(23))
	for c := 0; c < 400; c++ {
		randomTraffic(r, a, a.Nodes())
		a.Step()
	}
	if a.actPhits == 0 {
		t.Fatal("no phits in flight at the checkpoint")
	}
	var e wire.Encoder
	a.SaveState(&e)
	b, _ := makeNetCfg(t, cfg, 1<<14)
	for ri := range b.routers {
		b.routers[ri].inMask = [2]uint8{0x7f, 0x7f}
	}
	if err := b.RestoreState(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	checkMask(t, b, 400)
	ra, rb := rand.New(rand.NewSource(29)), rand.New(rand.NewSource(29))
	for c := 400; c < 2400; c++ {
		randomTraffic(ra, a, a.Nodes())
		randomTraffic(rb, b, b.Nodes())
		a.Step()
		b.Step()
		checkMask(t, b, c)
		if da, db := a.StateDigest(), b.StateDigest(); da != db {
			t.Fatalf("cycle %d: restored network diverged (%#x vs %#x)", c, db, da)
		}
	}
}
