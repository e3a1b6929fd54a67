package jmachine_test

// Golden behaviour pins: every workload the paper reports, at a quick
// size, run on the sequential reference loop with library defaults,
// must end in exactly these host-independent counters and machine
// StateDigest. The table was recorded on the tree before the network's
// occupied-port scan replaced the full seven-buffer scan; any change
// to simulated behaviour — a reordered arbitration, a phit moved a
// cycle early — shows up here as a counter or digest mismatch. Unlike
// the engine's cross-configuration equivalence suite, these pins stay
// meaningful when an alternative configuration is deleted: they prove
// "unchanged" against the recorded tree, not against a sibling mode.
//
// A deliberate behaviour change must re-record the table and say why
// in its commit message.

import (
	"fmt"
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/machine"
	"jmachine/internal/network"
)

// goldenOut is one row's pinned result.
type goldenOut struct {
	cycles    int64
	instrs    uint64
	phitHops  uint64
	delivered uint64 // words, both priorities
	digest    uint64
}

func (g goldenOut) String() string {
	return fmt.Sprintf("{cycles: %d, instrs: %d, phitHops: %d, delivered: %d, digest: 0x%016x}",
		g.cycles, g.instrs, g.phitHops, g.delivered, g.digest)
}

func outOf(m *machine.Machine, cycles int64) goldenOut {
	ns := m.Net.Stats()
	return goldenOut{
		cycles:    cycles,
		instrs:    m.Stats.Instrs(),
		phitHops:  ns.PhitHops,
		delivered: ns.DeliveredWords[0] + ns.DeliveredWords[1],
		digest:    m.StateDigest(),
	}
}

func campaignOut(r *bench.CampaignResult) goldenOut {
	return goldenOut{
		cycles:    r.Cycles,
		instrs:    r.Instrs,
		phitHops:  r.Net.PhitHops,
		delivered: r.Net.DeliveredWords[0] + r.Net.DeliveredWords[1],
		digest:    r.StateDigest,
	}
}

func arbTune(arb network.Arbitration) func(*machine.Config) {
	return func(c *machine.Config) { c.Net.Arbitration = arb }
}

// goldenRow is (workload, nodes, seed, arbitration) → pinned result.
type goldenRow struct {
	workload string
	nodes    int
	seed     int64
	arb      network.Arbitration
	run      func(nodes int, seed int64, arb network.Arbitration) (goldenOut, error)
	want     goldenOut
}

var goldenRows = []goldenRow{
	{"pingpong", 64, 0, network.FixedPriority, runPing,
		goldenOut{cycles: 61, instrs: 17, phitHops: 126, delivered: 3, digest: 0x597e475725d6e0b6}},
	{"barrier", 64, 0, network.FixedPriority, runBarrier,
		goldenOut{cycles: 2166, instrs: 76328, phitHops: 23040, delivered: 3840, digest: 0x7c87cf95f7d008a7}},
	{"lcs", 64, 11, network.FixedPriority, runLCS,
		goldenOut{cycles: 13857, instrs: 273665, phitHops: 149832, delivered: 24578, digest: 0xbec8cb5d53baca50}},
	{"radix", 64, 11, network.FixedPriority, runRadix,
		goldenOut{cycles: 47975, instrs: 1523126, phitHops: 614296, delivered: 64260, digest: 0xd204a611ea0fd63f}},
	{"radix", 64, 11, network.RoundRobin, runRadix,
		goldenOut{cycles: 48064, instrs: 1525127, phitHops: 614296, delivered: 64260, digest: 0x1ed2ce29c56b1167}},
	{"nqueens", 64, 0, network.FixedPriority, runNQueens,
		goldenOut{cycles: 7949, instrs: 77104, phitHops: 4590, delivered: 462, digest: 0x8b5e40dff0ae3d4c}},
	{"tsp", 64, 11, network.FixedPriority, runTSP,
		goldenOut{cycles: 15491, instrs: 305305, phitHops: 212735, delivered: 15733, digest: 0xfaf5702b36417ae2}},
	// A seeded random campaign (link stall, corruption, freezes,
	// squeezes) under the full resilience stack: checksum drops,
	// duplicate filtering, reliable retransmission and injected link
	// stalls all land in this run.
	{"barrier-chaos", 64, 3, network.FixedPriority, runBarrierChaos,
		goldenOut{cycles: 8663, instrs: 223784, phitHops: 34731, delivered: 4572, digest: 0xbbc48d54cef1ad0c}},
}

func runPing(nodes int, _ int64, _ network.Arbitration) (goldenOut, error) {
	r, err := bench.PingCampaign(chaos.Campaign{}, bench.ResilienceConfig{Nodes: nodes})
	if err != nil {
		return goldenOut{}, err
	}
	if !r.Completed {
		return goldenOut{}, r.Err
	}
	return campaignOut(r), nil
}

func runBarrier(nodes int, _ int64, _ network.Arbitration) (goldenOut, error) {
	r, err := bench.BarrierCampaign(chaos.Campaign{}, bench.ResilienceConfig{Nodes: nodes}, 4)
	if err != nil {
		return goldenOut{}, err
	}
	if !r.Completed {
		return goldenOut{}, r.Err
	}
	return campaignOut(r), nil
}

func runBarrierChaos(nodes int, seed int64, _ network.Arbitration) (goldenOut, error) {
	camp := chaos.RandomCampaign(uint64(seed), nodes, 1500, 8)
	r, err := bench.BarrierCampaign(camp, bench.ResilienceConfig{
		Nodes:    nodes,
		Checksum: true,
		RTS:      true,
		Reliable: true,
		Watchdog: 50_000,
		Budget:   400_000,
	}, 2)
	if err != nil {
		return goldenOut{}, err
	}
	if !r.Completed {
		return goldenOut{}, r.Err
	}
	return campaignOut(r), nil
}

func runLCS(nodes int, seed int64, _ network.Arbitration) (goldenOut, error) {
	r, err := lcs.Run(nodes, lcs.Params{LenA: 64, LenB: 128, Seed: seed})
	if err != nil {
		return goldenOut{}, err
	}
	return outOf(r.M, r.Cycles), nil
}

func runRadix(nodes int, seed int64, arb network.Arbitration) (goldenOut, error) {
	r, err := radix.Run(nodes, radix.Params{Keys: 2048, Seed: seed, Tune: arbTune(arb)})
	if err != nil {
		return goldenOut{}, err
	}
	return outOf(r.M, r.Cycles), nil
}

func runNQueens(nodes int, _ int64, _ network.Arbitration) (goldenOut, error) {
	r, err := nqueens.Run(nodes, nqueens.Params{N: 8, SplitDepth: 2})
	if err != nil {
		return goldenOut{}, err
	}
	return outOf(r.M, r.Cycles), nil
}

func runTSP(nodes int, seed int64, _ network.Arbitration) (goldenOut, error) {
	r, err := tsp.Run(nodes, tsp.Params{Cities: 7, Seed: seed})
	if err != nil {
		return goldenOut{}, err
	}
	return outOf(r.M, r.Cycles), nil
}

func TestGoldenWorkloads(t *testing.T) {
	for _, row := range goldenRows {
		row := row
		arb := "fixed"
		if row.arb == network.RoundRobin {
			arb = "rr"
		}
		name := fmt.Sprintf("%s/n%d/seed%d/%s", row.workload, row.nodes, row.seed, arb)
		t.Run(name, func(t *testing.T) {
			got, err := row.run(row.nodes, row.seed, row.arb)
			if err != nil {
				t.Fatal(err)
			}
			if got != row.want {
				t.Errorf("behaviour changed:\n  got  %v\n  want %v", got, row.want)
			}
		})
	}
}
