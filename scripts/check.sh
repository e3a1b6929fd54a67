#!/bin/sh
# Repo-wide verification: vet, the full test suite under the race
# detector, and a short deterministic chaos smoke test (two runs of the
# same seeded campaign must produce byte-identical output, and every
# workload must survive it with reliable delivery enabled).
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== jm-lint (determinism analyzers, docs/LINT.md)"
# JML001..JML006 over the whole simulation tree; any diagnostic fails
# the build. The MDP assembly verifier and effect certifier
# (ASM001..ASM012) run inside `go test` below, swept over the rt
# library, every workload program, and compiled jlang shapes; the
# -check smoke here exercises the jm-jc surface.
go build -o /tmp/jm-lint-check ./cmd/jm-lint
/tmp/jm-lint-check ./internal/...
go build -o /tmp/jm-jc-check ./cmd/jm-jc
/tmp/jm-jc-check -check examples/jlang/dotprod.j

echo "== engine equivalence under the race detector"
# The parallel engine's determinism contract, gated explicitly: every
# workload digest-equal to the sequential loop — including the observed
# variants, whose recorder must leave the digest untouched, and the
# fast-path sweep (TestFastPathEquiv*: ping, barrier, and the four
# applications under {reference, event-horizon} x shards {1,2,4,7}) —
# with the race detector checking the shard rendezvous protocol and
# the recorder's staging path.
go test -race -count=1 ./internal/engine/

echo "== go test -race"
# The broad race pass runs -short: the slowest sweeps (every-cycle
# observability sampling, cross-shard table reruns) run at full depth
# race-free in the coverage pass below, and the engine package already
# ran complete under race above.
go test -race -short ./...

echo "== go test -cover"
go test -cover ./... | tee /tmp/jm-cover.out
echo "-- coverage summary"
awk '$1 == "ok" { for (i = 1; i <= NF; i++) if ($i == "coverage:") printf "%7s  %s\n", $(i+1), $2 }' \
    /tmp/jm-cover.out | sort -r
echo "-- coverage floors (internal/asm >= 90%, internal/compiled >= 80%)"
# internal/asm recovers handler CFGs and certifies effects, and
# internal/compiled turns them into closures; both are the compiled
# tier's trusted base, so their statement coverage is floored rather
# than merely reported — the verifier/certifier strictest, since every
# fusion license rests on it.
awk '$1 == "ok" && ($2 == "jmachine/internal/asm" || $2 == "jmachine/internal/compiled") {
        floor = ($2 == "jmachine/internal/asm") ? 90 : 80
        for (i = 1; i <= NF; i++) if ($i == "coverage:") {
            v = $(i+1); sub(/%/, "", v); found++
            printf "%7.1f%%  %s\n", v, $2
            if (v + 0 < floor) { printf "FAIL: %s below the %d%% floor\n", $2, floor; bad = 1 }
        }
    }
    END { if (found < 2) { print "FAIL: coverage rows for internal/asm + internal/compiled missing"; exit 1 }
          exit bad }' /tmp/jm-cover.out

echo "== fuzzers (time-boxed)"
# The fuzz targets' seed corpora run in every `go test` above; this
# step also mutates them for a bounded time. FuzzRestore feeds hostile
# checkpoints through every layer's restore path (including the
# machine's active-node set rebuild); FuzzCompiledVsInterpreter
# cross-checks the compiled tier against the interpreter on generated
# programs. A crasher is written under the package's testdata/fuzz/
# and fails this step; commit it as a corpus entry with the fix.
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 15s ./internal/ckpt
go test -run '^$' -fuzz '^FuzzCompiledVsInterpreter$' -fuzztime 15s ./internal/compiled

echo "== perfbench tests"
# The repository benchmark (perfbench/, BENCHMARK.json) is its own Go
# module, so `./...` above never reaches it. Its tests run tiny
# versions of every workload, traced ones through the benchmark-owned
# machine.Stepper (Net.Quiet/SkipCycles/Step, PublishNetQuiet,
# StepNodeRangeInfo): a change that breaks that seam fails here.
(cd perfbench && go test ./...)

echo "== chaos smoke"
go build -o /tmp/jm-chaos-check ./cmd/jm-chaos
SMOKE='-workload all -seed 11 -reliable -watchdog 100000'
/tmp/jm-chaos-check $SMOKE > /tmp/jm-chaos-check-1.out
/tmp/jm-chaos-check $SMOKE > /tmp/jm-chaos-check-2.out
cmp /tmp/jm-chaos-check-1.out /tmp/jm-chaos-check-2.out
echo "chaos smoke: all workloads completed, output deterministic"

echo "== fast-path equivalence smoke"
# Event-horizon stepping vs the reference loop at the CLI surface: the
# Table 4/5 text (thread statistics off full application runs) must be
# byte-identical under {reference, fast} x shards {1,4}. The engine
# suite above proves the same for ping, barrier, and LCS digests.
go build -o /tmp/jm-tables-check ./cmd/jm-tables
/tmp/jm-tables-check -quick -exp tab4,tab5 -shards 1 > /tmp/jm-tables-fast-1.out
/tmp/jm-tables-check -quick -exp tab4,tab5 -shards 4 > /tmp/jm-tables-fast-4.out
/tmp/jm-tables-check -quick -exp tab4,tab5 -reference -shards 1 > /tmp/jm-tables-ref-1.out
/tmp/jm-tables-check -quick -exp tab4,tab5 -reference -shards 4 > /tmp/jm-tables-ref-4.out
cmp /tmp/jm-tables-fast-1.out /tmp/jm-tables-fast-4.out
cmp /tmp/jm-tables-fast-1.out /tmp/jm-tables-ref-1.out
cmp /tmp/jm-tables-fast-1.out /tmp/jm-tables-ref-4.out
echo "fast-path smoke: Table 4/5 byte-identical across stepping modes"

echo "== compiled-tier equivalence smoke"
# The compiled handler tier at the CLI surface: all six workloads
# (pingpong, barrier, lcs, radix, nqueens, tsp) under the seeded chaos
# campaign must print byte-identical results with the tier on, at
# shards 1 and 4, as the interpreter run above produced. The package
# suites (internal/compiled) prove the same per-cycle and per-window;
# this proves the shipped binaries agree end to end.
/tmp/jm-chaos-check $SMOKE -compiled -shards 1 > /tmp/jm-chaos-compiled-1.out
/tmp/jm-chaos-check $SMOKE -compiled -shards 4 > /tmp/jm-chaos-compiled-4.out
cmp /tmp/jm-chaos-check-1.out /tmp/jm-chaos-compiled-1.out
cmp /tmp/jm-chaos-check-1.out /tmp/jm-chaos-compiled-4.out
echo "compiled smoke: six workloads byte-identical to the interpreter at shards 1 and 4"

echo "== checkpoint crash-recovery smoke"
# SIGKILL a checkpointing jm-chaos run after its first periodic
# checkpoint, resume in a fresh process, and require the final digest
# to match an uninterrupted run (docs/CHECKPOINT.md).
sh scripts/ckpt_smoke.sh

echo "== serve smoke"
# Multi-tenant daemon: create a session over HTTP, SIGKILL the daemon,
# restart on the same state dir, require byte-identical recovery, then
# a verified jm-load run (docs/SERVE.md).
sh scripts/serve_smoke.sh

echo "== mesh-scaling smoke"
# Epoch-batched engine at scale: the deterministic rendezvous probe
# (per-cycle vs epoch protocol, digest-equal, >=10x reduction floor)
# plus one 4096-node mesh row digest-checked against a sequential
# reference run (docs/ENGINE.md).
go build -o /tmp/jm-bench-check ./cmd/jm-bench
/tmp/jm-bench-check -mesh-smoke -mesh-cycles 1500
echo "mesh smoke: rendezvous floor held, 4K-node mesh digest-checked"

echo "== trace smoke"
# The observability CLI must produce a loadable timeline that is
# byte-identical sequential and sharded.
go build -o /tmp/jm-trace-check ./cmd/jm-trace
/tmp/jm-trace-check -perfetto /tmp/jm-trace-1.json -shards 1 > /dev/null
/tmp/jm-trace-check -perfetto /tmp/jm-trace-4.json -shards 4 > /dev/null
cmp /tmp/jm-trace-1.json /tmp/jm-trace-4.json
echo "trace smoke: timeline byte-identical across shard counts"

echo "== OK"
