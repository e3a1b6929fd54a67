package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"jmachine/internal/serve"
)

// testSeeds are the default seed and one never used while the benchmark
// was tuned.
var testSeeds = []int64{defaultSeed, 104729}

// tinyWorkloads are the benchmark's workloads at sizes that run in
// milliseconds.
var tinyWorkloads = map[string]func(runCfg) (report, error){
	"radix":   func(c runCfg) (report, error) { return appWorkload(radixApp(16, 2048), c) },
	"nqueens": func(c runCfg) (report, error) { return appWorkload(nqueensApp(16, 8), c) },
	"serve-kv": func(c runCfg) (report, error) {
		k := kvShape{sessions: 2, nodes: 4, keys: 8, batch: 4, clients: 2, setups: 2, warmSetups: 1, direct: 4}
		return serveKVWorkload(k, c)
	},
}

func TestTinyWorkloadsPassEveryCheck(t *testing.T) {
	if len(tinyWorkloads) != len(workloads) {
		t.Fatalf("%d tiny workloads for %d workloads", len(tinyWorkloads), len(workloads))
	}
	for name, w := range tinyWorkloads {
		for _, seed := range testSeeds {
			for _, trace := range []bool{false, true} {
				c := runCfg{seed: seed, window: 300 * time.Millisecond, trace: trace,
					state: t.TempDir(), log: io.Discard}
				rep, err := w(c)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Fatalf("%s seed %d trace %v: %d of %d checks failed", name, seed, trace, rep.failed, rep.attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				got, err := fill(defs, rep.scope, rep.values)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				if !trace {
					for _, d := range defs {
						if got[d.name].Value <= 0 {
							t.Errorf("%s seed %d: end-to-end %s = %v, want > 0", name, seed, d.name, got[d.name].Value)
						}
					}
				}
				if rep.counters.Digest == "" || rep.counters.Instrs == 0 {
					t.Errorf("%s seed %d trace %v: counters not recorded: %+v", name, seed, trace, rep.counters)
				}
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks the metric names and units the
// code prints against the contract file at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q does not match the naming rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || !nameRE.MatchString(w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the code runs", w.Name)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"jmachine/internal/network.(*Network).stepRange":         "network",
		"jmachine/internal/machine.(*Machine).StepNodeRangeInfo": "machine",
		"jmachine/internal/ckpt/wire.(*Encoder).U64":             "ckpt",
		"jmachine/internal/rt.Attach.func1":                      "other",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/syscall.Syscall6":                      "syscall",
		"runtime.futex":                                          "runtime",
		"slices.SortFunc[go.shape.[]jmachine/internal/mdp.T]":    "other",
		"encoding/json.(*decodeState).object":                    "other",
		"main.(*layerStepper).StepCycle":                         "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestKVModelRejectsStaleRead(t *testing.T) {
	m := kvModel{val: make([]int32, 4), ver: make([]int32, 4)}
	put := []serve.KVOp{{Op: "put", Key: 1, Value: 7}}
	if err := m.check(0, put, []serve.KVResult{{Seq: 0, Value: 7, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	get := []serve.KVOp{{Op: "get", Key: 1}}
	if err := m.check(1, get, []serve.KVResult{{Seq: 1, Value: 7, Version: 1}}); err != nil {
		t.Fatalf("fresh read rejected: %v", err)
	}
	if err := m.check(2, get, []serve.KVResult{{Seq: 2, Value: 0, Version: 0}}); err == nil {
		t.Fatal("stale read accepted")
	}
	// Within one request a get may read before or after a racing put.
	both := []serve.KVOp{{Op: "put", Key: 1, Value: 9}, {Op: "get", Key: 1}}
	if err := m.check(3, both, []serve.KVResult{{Seq: 3, Value: 9, Version: 2}, {Seq: 4, Value: 7, Version: 1}}); err != nil {
		t.Fatalf("read before a racing put rejected: %v", err)
	}
}
