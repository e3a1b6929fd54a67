package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"unsafe"
)

// CPU clocks of clock_gettime(2), which package syscall does not name.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuSeconds reads a CPU clock in nanoseconds and returns seconds.
func cpuSeconds(clock uintptr) float64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// cpuNow returns the CPU seconds (user + system) the process has used.
func cpuNow() float64 { return cpuSeconds(clockProcessCPU) }

// probeRefS is probe's median CPU time on the 2-vCPU host the benchmark
// was tuned on (README.md). The bounded timings are rescaled to it.
const probeRefS = 0.030

// probeSink keeps probe's loop from being optimised away.
var probeSink uint64

// probe runs a fixed register-only loop (xorshift64, no memory traffic,
// no simulator code) on a locked thread and returns the thread's CPU
// seconds. On a shared host the core's speed drifts over minutes with
// its clock and with what other tenants run on the sibling hardware
// thread; the probe's time drifts with it. The simulator's CPU time
// divided by the probe's is the simulator's cost in host-speed units.
func probe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := cpuSeconds(clockThreadCPU)
	x := uint64(88172645463325252)
	for i := 0; i < 12_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return cpuSeconds(clockThreadCPU) - c0
}

// atRefSpeed rescales the median CPU seconds of the operations to the
// tuning host's speed: median(cpu) × probeRefS ÷ median(probes).
func atRefSpeed(cpu, probes []float64) float64 {
	return median(cpu) * probeRefS / median(probes)
}

// scope says which workloads a metric is measured on. A workload prints
// every metric; one whose layer it does not exercise reads 0.
type scope int

const (
	scopeAll   scope = iota
	scopeApps        // the application workloads (radix, nqueens)
	scopeServe       // serve-kv
)

// metricDef names one metric. The two tables below are the benchmark's
// metric contract; BENCHMARK.json lists the same names and units.
type metricDef struct {
	name  string
	unit  string
	scope scope
}

// endToEnd are the metrics of an untraced run (--trace 0). An
// operation is one application run (from PreRun to Run returning) or one
// kv request. Timings are CPU seconds: the process's for an application,
// the serving thread's inside the handler for serve-kv. Operation times
// are rescaled to the tuning host's speed by probe. Raw CPU and
// wall-clock times are printed alongside and reported by the traced run.
var endToEnd = []metricDef{
	{"run_ref_s", "s", scopeAll},             // median CPU seconds of one operation at the tuning host's speed
	{"sim_instr_per_ref_s", "1/s", scopeAll}, // simulated instructions per operation / run_ref_s
	{"setup_s", "s", scopeAll},               // median CPU seconds of set-up
	{"heap_mb", "MB", scopeAll},              // live heap after GC, machines referenced
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"wall.run_s", "s", scopeAll},     // median wall seconds of one untraced operation
	{"wall.tail_s", "s", scopeAll},    // p99 (nearest rank) of the same
	{"host.run_cpu_s", "s", scopeAll}, // median CPU seconds of one untraced operation, not rescaled
	{"host.probe_s", "s", scopeAll},   // median CPU seconds of one probe
	{"network.step_s", "s", scopeApps},
	{"network.ns_per_phit_hop", "ns", scopeApps},
	{"network.busy_share", "share", scopeApps},
	{"network.phit_hops", "count", scopeAll},
	{"network.delivered_words", "count", scopeAll},
	{"network.mean_latency_cycles", "cycles", scopeApps},
	{"node.step_s", "s", scopeApps},
	{"node.live_share", "share", scopeApps},
	{"mdp.ns_per_instr", "ns", scopeApps},
	{"mdp.instructions", "count", scopeAll},
	{"mdp.threads", "count", scopeAll},
	{"mdp.send_faults", "count", scopeAll},
	{"machine.loop_s", "s", scopeApps},
	{"machine.sim_cycles", "cycles", scopeAll},
	{"machine.stepped_cycles", "cycles", scopeApps},
	{"machine.skipped_share", "share", scopeApps},
	{"serve.http_ms", "ms", scopeServe},
	{"serve.acquire_ms", "ms", scopeServe},
	{"serve.simulate_ms", "ms", scopeServe},
	{"serve.persist_ms", "ms", scopeServe},
	{"serve.restores", "count", scopeServe},
	{"ckpt.bytes_per_request", "bytes", scopeServe},
	{"kv.cycle_p50", "cycles", scopeServe},
	{"kv.cycle_p99", "cycles", scopeServe},
	{"trace.overhead", "ratio", scopeAll},
	{"prof.network_share", "share", scopeAll},
	{"prof.mdp_share", "share", scopeAll},
	{"prof.machine_share", "share", scopeAll},
	{"prof.mem_share", "share", scopeAll},
	{"prof.queue_share", "share", scopeAll},
	{"prof.serve_share", "share", scopeAll},
	{"prof.ckpt_share", "share", scopeAll},
	{"prof.runtime_share", "share", scopeAll},
	{"prof.syscall_share", "share", scopeAll},
	{"prof.other_share", "share", scopeAll},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns a workload's measured values into the printed metric set:
// every metric of defs appears, those outside the workload's scope read
// 0, and a missing or non-finite in-scope value is an error.
func fill(defs []metricDef, sc scope, got map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		inScope := d.scope == scopeAll || d.scope == sc
		switch {
		case inScope && !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case !inScope && ok:
			return nil, fmt.Errorf("metric %s is outside this workload's scope", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("unknown metric %s", name)
		}
	}
	return out, nil
}

// liveHeapMB returns the live heap after full collections. The second
// one also frees what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// nearestRank returns the p-th percentile of xs by the nearest-rank
// method: a value that was actually observed.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}
