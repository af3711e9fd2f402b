#!/bin/sh
# Fast CI gate: formatting, vet, the tier-1 `-short` suite (tier-2
# real-training tests skip themselves; see CLAUDE.md for the tier split),
# a smoke of the one experiment harness (cmd/nas-bench has no tests of its own),
# then the pure-simulation packages plus the evaluator's worker pool under
# the race detector (and ten more rounds of the one test that shares a
# space's compile memo between goroutines), 80 s of fuzzing (the event
# queue, the nasbench WAL scanner and the search scenario harness), and the
# coverage gate. Beyond the -short suite, the search package only runs its
# TestShort* pins and FuzzScenario's seed corpus (both fast-tier) — the full
# search suite trains real networks and belongs to `go test ./...`.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# A nil recorder must cost an emit site one compare, not a copy of the
# event: that holds only while Emit stays within the inlining budget.
if ! go build -gcflags=-m ./internal/trace 2>&1 | grep -q 'can inline (\*Recorder).Emit$'; then
    echo "check.sh: (*trace.Recorder).Emit is no longer inlinable" >&2
    exit 1
fi
# Go may fuse x*y + z into one multiply-add on arm64 (never on amd64), which
# rounds once where amd64 rounds twice. Every such product in the module
# outside benchmark/ is rounded with an explicit float64 conversion, so the
# goldens and reports recorded on amd64 hold there too (DESIGN §6; benchmark/
# is ROADMAP item 2 task 6). The module's assembly is held to the same rule by
# TestNoFusedAssembly in surface_test.go, which go test -short runs below.
fused=$(GOARCH=arm64 go build -gcflags=-S $(go list ./... | grep -v '/benchmark$') 2>&1 |
    grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' || true)
if [ -n "$fused" ]; then
    echo "check.sh: fused multiply-adds on arm64 outside benchmark/:" >&2
    echo "$fused" >&2
    exit 1
fi
go test -short ./...
# Every kernel benchmark row runs once, /avx and /go, so none rots unseen.
go test -run '^$' -bench . -benchtime 1x ./internal/tensor >/dev/null
# nas-bench's loop, end to end: the torture experiment (~15 s) panics on any
# violated durability invariant, the restart experiment (~25 s) walks search
# checkpoints across walltime cuts and so rides on the simulator's event
# order, the tournament replays 2,400 searches from the reward table (cold or
# warm), and the ablations, multiobjective and fig13 (~3 min together) are
# the cheap paper experiments. Each must reproduce its committed report
# (they are wall-clock-free), and an unknown id must fail naming a real one.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
for exp in torture restart tournament ablation-clip ablation-cache ablation-mirror \
    ablation-staleness ablation-evolution multiobjective fig13; do
    go run ./cmd/nas-bench -exp $exp -scale quick -out "$smoke" >/dev/null
    cmp "$smoke/$exp.txt" "bench_results/$exp.txt"
done
if go run ./cmd/nas-bench -exp bogus -out "$smoke" 2>"$smoke/err"; then
    echo "check.sh: nas-bench -exp bogus exited 0" >&2
    exit 1
fi
grep -q 'tournament' "$smoke/err"
# Results must not depend on the host's core count: evaluator Workers == 0
# resolves to GOMAXPROCS, so the determinism pins run serial (1), at the
# smallest pooled width (2) and wider than the test machines' node count (8).
# nasbench is in the loop for the table source × pool interplay: a reward
# source makes every estimation an inline future whatever the width; and
# its builder and tournament run GOMAXPROCS units at a time. rl and train
# are in the loop so the controller and training goldens are held at every
# width too.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -short -count=1 -run 'TestShort|TestPool|FuzzScenario' \
        ./internal/search/ ./internal/evaluator/ ./internal/nasbench/ ./internal/rl/ ./internal/train/
done
# tensor and nn are in the race list for the destination-passing kernels and
# the arenas: kernels run on the caller's goroutine, and the evaluator pool
# runs one model and one arena per goroutine. rl is arena-bearing code on top
# of them: one arena per controller, never shared across goroutines.
go test -race ./internal/hpc/ ./internal/balsam/ ./internal/rng/ ./internal/space/ \
    ./internal/ckpt/ ./internal/ps/ ./internal/optim/ ./internal/trace/ ./internal/analytics/ \
    ./internal/tensor/ ./internal/nn/ ./internal/rl/ ./internal/fsim/
# A Space's compile memo is the one piece of state the searches of a
# tournament, the allocations of a campaign and the pool's goroutines all
# reach: its concurrent test gets the ten runs an interleaving bug needs.
go test -race -count=10 -run TestCompileMemoConcurrent ./internal/space/
# The evaluator trains real (scaled) networks, but its suite is small enough
# to race-check whole — this is the only gate exercising Workers > 1
# evaluator concurrency under the race detector.
go test -race ./internal/evaluator/
# The scenario corpus runs ~50 small searches under ~15x race overhead, so
# raise go test's default 10-minute package timeout; -short skips its
# tier-2 rows, which train at full size.
go test -race -short -timeout 30m -run 'TestShort|FuzzScenario' ./internal/search/
# The campaign service multiplexes runner goroutines, HTTP handlers, and
# the supervisor over shared state; its suite (concurrent submits, panic
# restarts, kill -9 re-exec children) runs whole under the race detector.
go test -race -timeout 30m ./internal/campaign/
# Its control-plane pins (restarts, controls, drains, disk faults, racing
# submits) are where an ordering bug shows only sometimes. Repeating them
# under -race is slow, so the five repeats run without it.
go test -count=5 -run 'TestShortSupervisor|TestShortTransientIO|TestShortDiskFull|TestShortPauseResumeCancel|TestShortDrainAndReopen|TestServerPauseCancelIdempotent|TestServerConcurrentSubmits|TestShortResumeAfterFailedMetaWrite' \
    ./internal/campaign/
# The tabular benchmark trains its table and replays its tournaments
# GOMAXPROCS units at a time over one shared space, evaluator and table,
# committing to the journal in index order; the whole suite is fast-tier by
# design. The ordered-commit helper's tests (adversarial completion order)
# and the GOMAXPROCS 1-vs-8 tape pins get the ten runs an interleaving bug
# needs.
go test -race -timeout 30m ./internal/nasbench/
go test -race -count=10 -timeout 30m -run 'TestInOrder|TestShort.*WidthInvariant' ./internal/nasbench/
# Every golden trace rides on the event queue's (time, seq) order and every
# checkpoint on its enumeration. The seeds are f.Add calls, committed
# byte-identical under testdata; new inputs go to the build cache, not the
# tree.
go test -run '^$' -fuzz FuzzEventQueue -fuzztime 20s ./internal/hpc/
# The WAL scanner is the durability reader every table build and tournament
# resumes through: a damaged frame ends its segment, and only an intact
# header from a newer build fails the scan (ErrVersion). Its seeds are the
# committed damage shapes; new inputs go to the build cache.
go test -run '^$' -fuzz FuzzScanWAL -fuzztime 20s ./internal/nasbench/
# A search's log is a function of (strategy, seed, size) alone: the scenario
# harness draws worker counts, memory regimes, walltime cuts, checkpoint
# media, recorders, core counts and knobs changed at a resume. Its seed
# corpus is in code; new inputs go to the build cache as well.
go test -run '^$' -fuzz FuzzScenario -fuzztime 40s ./internal/search/

# Coverage gate on the persistence- and concurrency-critical packages: the
# trace codec, the checkpoint container, the fault-injection filesystem
# (the torture harness is only as honest as its simulated disk), the
# evaluator (cache + worker pool), the tensor/nn hot path
# (destination-passing kernels + arena), and the campaign service
# (crash-consistent store + supervisor + HTTP edge + crash-point torture)
# must stay thoroughly tested — a regression here can silently corrupt
# recorded runs, checkpoint chains, reward determinism, the float
# bit-identity the arena guarantees, or the kill-anywhere durability the
# campaign server promises. hpc and balsam join the gate with the
# simulator core: the event queue and the job state machine decide
# every golden trace in the repo, so their differential/fuzz/alloc suites
# must keep covering them. nasbench joins with the tabular-benchmark
# artifact: its WAL/table codec and replay backend decide whether thousands
# of tournament searches are served the right rewards. rl joins with the
# controller's arena: its golden and allocation pins are what hold the PPO
# update bit-identical and allocation-free.
profile="$smoke/cover.out"
go test -coverprofile="$profile" ./internal/trace/ ./internal/ckpt/ ./internal/fsim/ \
    ./internal/evaluator/ ./internal/tensor/ ./internal/nn/ ./internal/campaign/ \
    ./internal/hpc/ ./internal/balsam/ ./internal/nasbench/ ./internal/rl/ >/dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
if ! awk -v t="$total" 'BEGIN { exit (t >= 85) ? 0 : 1 }'; then
    echo "check.sh: trace+ckpt+fsim+evaluator+tensor+nn+campaign+hpc+balsam+nasbench+rl coverage ${total}% is below the 85% gate" >&2
    exit 1
fi
echo "check.sh: trace+ckpt+fsim+evaluator+tensor+nn+campaign+hpc+balsam+nasbench+rl coverage ${total}%"
echo "check.sh: OK"
