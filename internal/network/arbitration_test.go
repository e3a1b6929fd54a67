package network

// Arbitration pins. Both output-channel arbitration policies are
// pinned against a fixed injection pattern (TestRandomTrafficAllDelivered
// covers delivery under both on saturating traffic): a rolling fold
// of StateDigest taken after every cycle must match the recorded
// value, so any change to the order in which a router visits its input
// ports — fixed ascending order, or the round-robin rotation — shows
// up as a digest mismatch on the first cycle it matters.

import (
	"math/rand"
	"testing"
)

// arbTraffic injects a fixed pseudo-random mix: per node, msgs
// messages at both priorities to random destinations (self-sends
// included), with random lengths and launch delays.
func arbTraffic(n *Network, seed int64, msgs int) {
	r := rand.New(rand.NewSource(seed))
	for id := 0; id < n.Nodes(); id++ {
		for k := 0; k < msgs; k++ {
			m := msgTo(n, r.Intn(n.Nodes()), r.Intn(2), 1+r.Intn(6))
			m.Src = int32(id)
			n.Inject(id, m, int32(r.Intn(4)))
		}
	}
}

// arbDigest runs the fixed pattern to quiescence and folds the network
// digest after every cycle.
func arbDigest(t *testing.T, arb Arbitration) (uint64, int64) {
	t.Helper()
	n, _ := makeNetCfg(t, Config{DimX: 4, DimY: 4, DimZ: 2, Arbitration: arb}, 1<<14)
	arbTraffic(n, 17, 12)
	h := uint64(0xcbf29ce484222325)
	for c := 0; c < 200_000 && n.Pending(); c++ {
		n.Step()
		h = digestMix(h, n.StateDigest())
	}
	if n.Pending() {
		t.Fatalf("arbitration %d: network did not drain", arb)
	}
	return h, n.Stats().Cycles
}

func TestArbitrationDigestPinned(t *testing.T) {
	for _, c := range []struct {
		arb    Arbitration
		digest uint64
		cycles int64
	}{
		{FixedPriority, 0xc88bcfac182138d8, 357},
		{RoundRobin, 0xcd6fd8c2693033bd, 380},
	} {
		h, cyc := arbDigest(t, c.arb)
		if h != c.digest || cyc != c.cycles {
			t.Errorf("arbitration %d: rolling digest %#016x after %d cycles, want %#016x after %d",
				c.arb, h, cyc, c.digest, c.cycles)
		}
	}
}
