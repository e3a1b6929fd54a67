package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
)

// appOut is what one application run hands back: the machine it ran on
// and a check of its answer against the package Reference, evaluated
// after the timed interval.
type appOut struct {
	m     *machine.Machine
	check func() error
}

type (
	setupHook  = func(*machine.Machine, *rt.Runtime)
	preRunHook = func(*machine.Machine) error
)

// app builds and runs one application through its package Run, passing
// the benchmark's Setup and PreRun hooks.
type app func(seed int64, setup setupHook, preRun preRunHook) (appOut, error)

func radixApp(nodes, keys int) app {
	return func(seed int64, setup setupHook, preRun preRunHook) (appOut, error) {
		p := radix.Params{Keys: keys, Seed: seed, Setup: setup, PreRun: preRun}
		res, err := radix.Run(nodes, p)
		return appOut{m: res.M, check: func() error {
			if want := radix.Reference(p.Input()); !slices.Equal(res.Sorted, want) {
				return fmt.Errorf("radix output differs from the reference sort")
			}
			return nil
		}}, err
	}
}

// nqueensApp ignores the seed: the problem has no random input.
func nqueensApp(nodes, n int) app {
	return func(_ int64, setup setupHook, preRun preRunHook) (appOut, error) {
		p := nqueens.Params{N: n, SplitDepth: 2, Setup: setup, PreRun: preRun}
		res, err := nqueens.Run(nodes, p)
		return appOut{m: res.M, check: func() error {
			if want := nqueens.Reference(n); res.Solutions != want {
				return fmt.Errorf("nqueens found %d solutions, reference %d", res.Solutions, want)
			}
			return nil
		}}, err
	}
}

// layerStepper is the traced run's machine.Stepper. It does exactly what
// the machine's built-in sequential cycle does — the network phase
// (elided while the mesh is quiet), the quiet certification, then the
// node phase — and times the network and node calls.
type layerStepper struct {
	net, node time.Duration
	stepped   int64 // cycles the stepper ran (the rest were bulk-skipped)
	busy      int64 // stepped cycles on which the network was not quiet
	live      int64 // sum over stepped cycles of nodes left unparked
	nodes     int
}

func (s *layerStepper) StepCycle(m *machine.Machine) {
	t0 := time.Now()
	if m.FastPathActive() && m.Net.Quiet() {
		m.Net.SkipCycles(1)
	} else {
		s.busy++
		m.Net.Step()
	}
	t1 := time.Now()
	m.PublishNetQuiet()
	t2 := time.Now()
	live, _ := m.StepNodeRangeInfo(0, len(m.Nodes))
	s.node += time.Since(t2)
	s.net += t1.Sub(t0)
	s.stepped++
	s.live += int64(live)
	s.nodes = len(m.Nodes)
}

// counters are a run's host-independent work counts.
type counters struct {
	Cycles     int64  `json:"sim_cycles"`
	Instrs     uint64 `json:"instructions"`
	Threads    uint64 `json:"threads"`
	SendFaults uint64 `json:"send_faults"`
	PhitHops   uint64 `json:"phit_hops"`
	Delivered  uint64 `json:"delivered_words"`
	LatencySum uint64 `json:"-"`
	Messages   uint64 `json:"-"`
	Digest     string `json:"state_digest"`
}

func countersOf(m *machine.Machine) counters {
	c := counters{Cycles: m.Cycle(), Digest: fmt.Sprintf("%016x", m.StateDigest())}
	for _, n := range m.Stats.Nodes {
		c.Instrs += n.Instrs
		c.Threads += n.Threads
		c.SendFaults += n.SendFaults
	}
	ns := m.Net.Stats()
	c.PhitHops = ns.PhitHops
	c.Delivered = ns.DeliveredWords[0] + ns.DeliveredWords[1]
	c.LatencySum = ns.LatencySum[0] + ns.LatencySum[1]
	c.Messages = ns.DeliveredMsgs[0] + ns.DeliveredMsgs[1]
	return c
}

// appRep is one timed application run.
type appRep struct {
	setupWall, runWall float64 // host seconds: Run call to PreRun, PreRun to return
	setupCPU, runCPU   float64 // process CPU seconds over the same intervals
	heapMB             float64
	probe              float64 // CPU seconds of the probe run just before
	ctr                counters
	layers             *layerStepper // traced runs only
	err                error         // run error or wrong answer
}

// runApp runs the application once. A traced run installs the layer
// stepper from the Setup hook and, when prof is non-nil, profiles the
// interval from PreRun to Run returning; an untraced run leaves every
// library default in place.
func runApp(a app, seed int64, traced bool, prof *cpuProfile) appRep {
	runtime.GC()
	rep := appRep{probe: probe()}
	var setup setupHook
	if traced {
		rep.layers = &layerStepper{}
		setup = func(m *machine.Machine, _ *rt.Runtime) { m.SetStepper(rep.layers) }
	}
	var tPre time.Time
	var cPre float64
	var profErr error
	preRun := func(*machine.Machine) error {
		if prof != nil {
			profErr = prof.start()
		}
		tPre, cPre = time.Now(), cpuNow()
		return nil
	}
	t0, c0 := time.Now(), cpuNow()
	out, err := a(seed, setup, preRun)
	t1, c1 := time.Now(), cpuNow()
	if prof != nil && profErr == nil && !tPre.IsZero() {
		profErr = prof.stop()
	}
	rep.setupWall, rep.runWall = tPre.Sub(t0).Seconds(), t1.Sub(tPre).Seconds()
	rep.setupCPU, rep.runCPU = cPre-c0, c1-cPre
	switch {
	case err != nil:
		rep.err = err
		return rep
	case profErr != nil:
		rep.err = profErr
		return rep
	}
	rep.err = out.check()
	rep.ctr = countersOf(out.m)
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(out.m)
	return rep
}

// appWorkload measures an application for the run window. Untraced, it
// repeats the run and reports medians. Traced, it alternates untraced
// and traced runs, requires each traced run to end in the untraced
// run's state (digest and cycle count), and reports the layer split.
func appWorkload(a app, c runCfg) (report, error) {
	var plain, traced []appRep
	prof := newCPUProfile()
	deadline := time.Now().Add(c.window)
	for len(plain) == 0 || time.Now().Before(deadline) {
		plain = append(plain, runApp(a, c.seed, false, nil))
		if c.trace {
			traced = append(traced, runApp(a, c.seed, true, prof))
		}
	}

	rep := report{scope: scopeApps, values: map[string]float64{}}
	ref := plain[0].ctr
	for i, r := range append(append([]appRep(nil), plain...), traced...) {
		rep.attempted++
		if r.err == nil && r.ctr != ref {
			r.err = fmt.Errorf("final state %+v differs from the first run's %+v", r.ctr, ref)
		}
		if r.err != nil {
			rep.failed++
			c.logf("run %d failed: %v", i, r.err)
		}
	}
	rep.counters = ref
	if rep.failed > 0 {
		return rep, nil
	}

	col := func(rs []appRep, f func(appRep) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	wall := col(plain, func(r appRep) float64 { return r.runWall })
	cpu := col(plain, func(r appRep) float64 { return r.runCPU })
	c.logSpread("run wall s", wall)
	probes := col(plain, func(r appRep) float64 { return r.probe })
	c.logSpread("run cpu s", cpu)
	c.logSpread("probe cpu s", probes)
	c.logSpread("setup wall s", col(plain, func(r appRep) float64 { return r.setupWall }))
	v := rep.values
	if !c.trace {
		v["run_ref_s"] = atRefSpeed(cpu, probes)
		v["sim_instr_per_ref_s"] = float64(ref.Instrs) / v["run_ref_s"]
		v["setup_s"] = median(col(plain, func(r appRep) float64 { return r.setupCPU }))
		v["heap_mb"] = median(col(plain, func(r appRep) float64 { return r.heapMB }))
		return rep, nil
	}

	v["wall.run_s"] = median(wall)
	v["wall.tail_s"] = nearestRank(wall, 99)
	v["host.run_cpu_s"] = median(cpu)
	v["host.probe_s"] = median(probes)
	netS := median(col(traced, func(r appRep) float64 { return r.layers.net.Seconds() }))
	nodeS := median(col(traced, func(r appRep) float64 { return r.layers.node.Seconds() }))
	tracedRun := median(col(traced, func(r appRep) float64 { return r.runWall }))
	l := traced[0].layers // the counts repeat exactly across runs
	v["network.step_s"] = netS
	v["network.ns_per_phit_hop"] = netS * 1e9 / float64(max(ref.PhitHops, 1))
	v["network.busy_share"] = float64(l.busy) / float64(l.stepped)
	v["network.phit_hops"] = float64(ref.PhitHops)
	v["network.delivered_words"] = float64(ref.Delivered)
	v["network.mean_latency_cycles"] = float64(ref.LatencySum) / float64(max(ref.Messages, 1))
	v["node.step_s"] = nodeS
	v["node.live_share"] = float64(l.live) / (float64(l.stepped) * float64(l.nodes))
	v["mdp.ns_per_instr"] = nodeS * 1e9 / float64(ref.Instrs)
	v["mdp.instructions"] = float64(ref.Instrs)
	v["mdp.threads"] = float64(ref.Threads)
	v["mdp.send_faults"] = float64(ref.SendFaults)
	v["machine.loop_s"] = median(col(traced, func(r appRep) float64 {
		return r.runWall - r.layers.net.Seconds() - r.layers.node.Seconds()
	}))
	v["machine.sim_cycles"] = float64(ref.Cycles)
	v["machine.stepped_cycles"] = float64(l.stepped)
	v["machine.skipped_share"] = 1 - float64(l.stepped)/float64(ref.Cycles)
	v["trace.overhead"] = tracedRun / median(wall)
	return rep, prof.shares(v)
}
