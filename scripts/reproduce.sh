#!/bin/sh
# Regenerates every committed report of the experiment registry at quick
# scale and cmps each with bench_results/. simbench is skipped: its report is
# host wall time. Every other report is wall-clock-free, so a change that
# moves no bit leaves every one equal. One experiment at a time: 26 to 88 min
# on 2 vCPUs, depending on the host; kept out of check.sh for that reason.
#
#   scripts/reproduce.sh             # every id but simbench
#   scripts/reproduce.sh fig4 faults # just these ids
#
# The tournament keeps its reward table and journal under
# bench_results/nasbench/ (gitignored), as nas-bench always does, so a warm
# rerun of it takes seconds. Exit status is 1 if any report differs or is
# missing from bench_results/.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/nas-bench" ./cmd/nas-bench

if [ $# -gt 0 ]; then
    ids="$*"
else
    # The registry names its ids when asked for an unknown one.
    ids=$("$out/nas-bench" -exp '?' -out "$out" 2>&1 |
        sed -n 's/.*(have \(.*\))$/\1/p' | tr -d ',')
    if [ -z "$ids" ]; then
        echo "reproduce.sh: could not list the registry's ids" >&2
        exit 1
    fi
fi

failed=0
for id in $ids; do
    [ "$id" = simbench ] && continue
    start=$(date +%s)
    "$out/nas-bench" -exp "$id" -scale quick -out "$out" >/dev/null
    secs=$(($(date +%s) - start))
    if [ ! -f "bench_results/$id.txt" ]; then
        echo "reproduce.sh: $id: no committed bench_results/$id.txt (${secs}s)"
        failed=1
    elif cmp -s "$out/$id.txt" "bench_results/$id.txt"; then
        echo "reproduce.sh: $id: equal (${secs}s)"
    else
        echo "reproduce.sh: $id: DIFFERS (${secs}s)"
        diff "bench_results/$id.txt" "$out/$id.txt" | head -20 || true
        failed=1
    fi
done
if [ $failed -ne 0 ]; then
    echo "reproduce.sh: FAILED" >&2
    exit 1
fi
echo "reproduce.sh: OK"
