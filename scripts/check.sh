#!/bin/sh
# Fast CI gate: formatting, vet, the tier-1 `-short` suite (tier-2
# real-training tests skip themselves; see CLAUDE.md for the tier split),
# a smoke of the one experiment harness (cmd/ has no tests of its own),
# then the pure-simulation packages plus the evaluator's worker pool under
# the race detector (and ten more rounds of the one test that shares a
# space's compile memo between goroutines), 20 s of fuzzing on the event
# queue, and the coverage gate. The search package only runs its TestShort*
# fault/replay/resume/worker-pool tests — the full search suite trains real
# networks and belongs to `go test ./...`.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -short ./...
# nas-bench's loop, end to end: the torture experiment (~15 s) panics on any
# violated durability invariant and must reproduce the committed report (it
# is wall-clock-free), and an unknown id must fail naming a real one.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go run ./cmd/nas-bench -exp torture -scale quick -out "$smoke" >/dev/null
cmp "$smoke/torture.txt" bench_results/torture.txt
if go run ./cmd/nas-bench -exp bogus -out "$smoke" 2>"$smoke/err"; then
    echo "check.sh: nas-bench -exp bogus exited 0" >&2
    exit 1
fi
grep -q 'tournament' "$smoke/err"
# Results must not depend on the host's core count: evaluator Workers == 0
# resolves to GOMAXPROCS, so the determinism pins run serial (1), at the
# smallest pooled width (2) and wider than the test machines' node count (8).
# nasbench is in the loop for the table source × pool interplay: a reward
# source makes every estimation an inline future whatever the width. rl is
# in the loop so the controller goldens are held at every width too.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -short -count=1 -run 'TestShort|TestPool' \
        ./internal/search/ ./internal/evaluator/ ./internal/nasbench/ ./internal/rl/
done
# tensor and nn are in the race list for the destination-passing kernels:
# their row-banded parallel paths (forced via GOMAXPROCS in the tests) are
# the only data-parallel float loops in the repo. rl is arena-bearing code
# on top of them: one arena per controller, never shared across goroutines.
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
# The worker-pool determinism tests run ~11 full searches under ~15x race
# overhead, so raise go test's default 10-minute package timeout.
go test -race -timeout 30m -run TestShort ./internal/search/
# The campaign service multiplexes runner goroutines, HTTP handlers, and
# the supervisor over shared state; its suite (concurrent submits, panic
# restarts, kill -9 re-exec children) runs whole under the race detector.
go test -race -timeout 30m ./internal/campaign/
# The tabular benchmark builds its table through the Workers>1 evaluator
# pool and replays searches against it at Workers ∈ {1,8}; the whole suite
# is fast-tier by design.
go test -race -timeout 30m ./internal/nasbench/
# The one -fuzz run in the gate: every golden trace rides on the calendar
# queue's (time, seq) order and every checkpoint on its enumeration, the seed
# corpus is committed, and new inputs go to the build cache, not the tree.
go test -run '^$' -fuzz FuzzEventQueue -fuzztime 20s ./internal/hpc/

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
# calendar-queue engine: the event queue and the job state machine decide
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
