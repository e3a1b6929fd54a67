package bench

// Chaos-campaign entry points: the Figure 2 ping and Table 3 barrier
// micro-benchmarks re-run under a fault schedule, with the resilience
// machinery (checksums, return-to-sender, reliable delivery, the
// progress watchdog) switched on or off. cmd/jm-chaos drives these to
// measure survival and degradation.

import (
	"jmachine/internal/asm"
	"jmachine/internal/chaos"
	"jmachine/internal/ckpt"
	"jmachine/internal/compiled"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/network"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
)

// ResilienceConfig selects the protection layers for a campaign run.
type ResilienceConfig struct {
	Nodes       int   // machine size (default 8)
	Checksum    bool  // NI checksum word + delivery-port verification
	RTS         bool  // return-to-sender flow control
	MaxReturns  int   // bound on refusals before the network drops (0 = unbounded)
	Watchdog    int64 // progress-watchdog window in cycles (0 = off)
	Reliable    bool  // ACK/timeout/retransmit runtime (rt.EnableReliable)
	ReliableCfg rt.ReliableConfig
	Budget      int64 // cycle budget (default 2,000,000)
	// Shards > 1 steps the machine with the parallel engine; 0 or 1
	// keeps the sequential reference loop. Results are byte-identical
	// either way (the equivalence suite enforces it).
	Shards int
	// Reference disables the event-horizon fast path (active-set
	// scheduling and bulk idle-skip), forcing the every-node-every-cycle
	// reference loop. Results are byte-identical either way; the flag
	// exists so the equivalence suite can prove it.
	Reference bool
	// Compiled installs the compiled handler tier (internal/compiled).
	// Byte-identical results either way, like Shards and Reference.
	Compiled bool
	// PerCycle forces the engine's per-cycle rendezvous protocol
	// (epoch batching off); ParallelWork overrides the inline/parallel
	// work threshold (0 = engine default). Both are digest-neutral
	// wall-clock knobs, mirrored from bench.Options.
	PerCycle     bool
	ParallelWork int
	// Obs, when non-nil, streams a Perfetto timeline and metric
	// snapshots from the campaign machine (see internal/obs). Purely a
	// tap: the StateDigest in the result is unchanged by it.
	Obs *obs.Options
	// Ckpt, when non-empty, periodically writes a crash-consistent
	// checkpoint of the complete run state (machine, runtime, reliable
	// protocol, chaos cursor) to this path.
	Ckpt string
	// CkptEvery is the checkpoint period in cycles (default 65536).
	CkptEvery int64
	// Resume restores Ckpt over the freshly built machine before the
	// run loop starts; the run then continues exactly where the
	// checkpointed one stood.
	Resume bool
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Budget <= 0 {
		c.Budget = 2_000_000
	}
	return c
}

// machineConfig translates the resilience switches into a machine config.
func (c ResilienceConfig) machineConfig() machine.Config {
	cfg := machine.GridForNodes(c.Nodes)
	cfg.Net.Checksum = c.Checksum
	cfg.Net.ReturnToSender = c.RTS
	cfg.Net.MaxReturns = c.MaxReturns
	cfg.Watchdog = c.Watchdog
	return cfg
}

// CampaignResult reports one workload run under a fault campaign.
type CampaignResult struct {
	Workload  string
	Completed bool   // the workload reached its normal end
	Err       error  // the surfaced error otherwise (watchdog, fatal, budget)
	Cycles    int64  // machine cycles consumed
	Value     int64  // workload metric: ping RTT or cycles/barrier
	Instrs    uint64 // instructions retired across all nodes

	Net           network.Stats
	WatchdogTrips uint64
	HasReliable   bool
	Reliable      rt.ReliableStats
	ChaosReport   string
	// StateDigest folds the machine's final state (machine.StateDigest)
	// so sequential and sharded runs can be compared byte-for-byte.
	StateDigest uint64
}

// prepare builds a machine for a campaign run and attaches the runtime,
// the optional reliable-delivery layer, the chaos injector, the
// checkpoint writer, the observability recorder, and — when
// rc.Shards > 1 — the parallel engine. The caller must defer the
// returned stop (which releases the engine workers and drains the
// recorder's trace files) and invoke preRun after the workload's
// start-up, immediately before the run loop: it restores the
// checkpoint when rc.Resume is set.
func prepare(camp chaos.Campaign, rc ResilienceConfig, p *asm.Program) (*machine.Machine, *rt.Reliable, *chaos.Injector, func(), func() error, error) {
	m, err := machine.New(rc.machineConfig(), p)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if rc.Reference {
		m.SetFastPath(false)
	}
	if rc.Compiled {
		if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
			return nil, nil, nil, nil, nil, err
		}
	}
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	var rel *rt.Reliable
	if rc.Reliable {
		rel = rt.EnableReliable(r, rc.ReliableCfg)
	}
	inj := chaos.Attach(m, camp)
	savers := []ckpt.Saver{r}
	if rel != nil {
		savers = append(savers, rel)
	}
	savers = append(savers, inj)
	layers := ckpt.Flags{Path: rc.Ckpt, Every: rc.CkptEvery, Resume: rc.Resume}.Attach(m, savers...)
	stopObs := rc.Obs.AttachTo(m)
	var eng *engine.Engine
	if rc.Shards > 1 {
		eng = engine.AttachCfg(m, rc.Shards,
			engine.Config{PerCycle: rc.PerCycle, ParallelWork: rc.ParallelWork})
	}
	stop := func() {
		eng.Stop()
		reportObsErr(stopObs())
	}
	return m, rel, inj, stop, layers.PreRun, nil
}

// collect folds the run outcome into a CampaignResult.
func collect(name string, m *machine.Machine, rel *rt.Reliable, inj *chaos.Injector, runErr error, value int64) *CampaignResult {
	res := &CampaignResult{
		Workload:      name,
		Completed:     runErr == nil,
		Err:           runErr,
		Cycles:        m.Cycle(),
		Value:         value,
		Instrs:        m.Stats.Instrs(),
		Net:           m.Net.Stats(),
		WatchdogTrips: m.WatchdogTrips,
		ChaosReport:   inj.Report(),
		StateDigest:   m.StateDigest(),
	}
	if rel != nil {
		res.HasReliable = true
		res.Reliable = rel.Stats()
	}
	return res
}

// PingCampaign runs the Figure 2 ping client from node 0 to the
// farthest node under the fault campaign. Value is the measured
// round-trip time in cycles when the run completes.
func PingCampaign(camp chaos.Campaign, rc ResilienceConfig) (*CampaignResult, error) {
	rc = rc.withDefaults()
	p := buildMicroProgram(buildPingClient)
	m, rel, inj, stop, preRun, err := prepare(camp, rc, p)
	if err != nil {
		return nil, err
	}
	defer stop()
	target := m.NumNodes() - 1
	if err := m.Nodes[0].Mem.Write(rt.AppBase, m.Net.NodeWord(target)); err != nil {
		return nil, err
	}
	rt.StartNode(m, p, 0, "main")
	if err := preRun(); err != nil {
		return nil, err
	}
	runErr := m.RunWhile(func(m *machine.Machine) bool {
		w, _ := m.Nodes[0].Mem.Read(rt.AddrFlag)
		return !w.Truthy()
	}, rc.Budget)
	var rtt int64
	if runErr == nil {
		flag, _ := m.Nodes[0].Mem.Read(rt.AddrFlag)
		start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
		rtt = int64(flag.Data() - start.Data())
	}
	return collect("pingpong", m, rel, inj, runErr, rtt), nil
}

// BarrierCampaign runs inner back-to-back barriers on every node under
// the fault campaign. Value is cycles per barrier when the run
// completes.
func BarrierCampaign(camp chaos.Campaign, rc ResilienceConfig, inner int) (*CampaignResult, error) {
	rc = rc.withDefaults()
	if inner <= 0 {
		inner = 4
	}
	p := barrierBenchProgram(inner)
	m, rel, inj, stop, preRun, err := prepare(camp, rc, p)
	if err != nil {
		return nil, err
	}
	defer stop()
	rt.StartAll(m, p, "main")
	if err := preRun(); err != nil {
		return nil, err
	}
	runErr := m.RunUntilHalt(0, rc.Budget)
	var per int64
	if runErr == nil {
		start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 1)
		end, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
		per = int64(end.Data()-start.Data()) / int64(inner)
	}
	return collect("barrier", m, rel, inj, runErr, per), nil
}
