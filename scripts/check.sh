#!/bin/sh
# check.sh — the repo's one-command health gate: gofmt, build, vet, the
# pinlint invariant suite diffed against its checked-in baseline, full
# test suite (shuffled), a race-detector pass over the whole tree (minus
# the slowest fault-injection e2e sweeps), a race-checked smoke of the
# shard coordinator over both transports, a one-iteration benchmark smoke, a
# perfbench run gated on its export digests, and a short fuzz smoke over
# journal recovery.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

# go vet with an explicit pass list rather than the implicit default set.
# The first three are the load-bearing ones for this codebase and must
# never silently fall out of the gate: copylocks (the study runner passes
# sync-bearing structs through worker channels),
# loopclosure (the worker pool and serving tests start goroutines inside
# range loops), and atomic (the snapshot swap path must not mix atomic and
# plain access). The remainder is today's full standard suite, spelled out
# so a toolchain upgrade changing vet's defaults is a visible diff here,
# not a silent behavior change.
echo "==> go vet (explicit pass list)"
go vet -copylocks -loopclosure -atomic \
    -appends -asmdecl -assign -bools -buildtag -cgocall -composites \
    -defers -directive -errorsas -framepointer -httpresponse -ifaceassert \
    -lostcancel -nilfunc -printf -shift -sigchanyzer -slog -stdmethods \
    -stdversion -stringintconv -structtag -testinggoroutine -tests \
    -timeformat -unmarshal -unreachable -unsafeptr -unusedresult ./...

# pinlint runs before the expensive passes: the custom invariant suite
# (detrandonly, mapdeterminism, exportshape, atomicswap, atomicwrite,
# pkiissuance, goroutinelifetime, locksafety, journaldiscipline,
# detrandflow, errdrop) is diffed against the checked-in baseline, so
# only NEW findings fail the gate (see scripts/lint_diff.sh).
echo "==> pinlint (baseline diff)"
./scripts/lint_diff.sh

# -shuffle=on randomizes test and subtest execution order so accidental
# inter-test coupling (shared globals, order-dependent caches) cannot hide.
echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

# The race pass covers the WHOLE tree, not a hand-picked package list: a
# hand-picked list silently loses coverage every time a new package grows
# a goroutine. Only the multi-second fault-injection e2e sweeps are
# skipped under -race — they re-run work the shuffled pass above already
# covered and their cost multiplies badly under the race detector; the
# concurrency they exercise is still raced through the remaining tests of
# the same packages.
echo "==> go test -race ./..."
go test -race -timeout 20m \
    -skip 'TestFaultedStudyIsDeterministicAcrossSchedules|TestStudySurvivesHeavyFaults|TestKillAtEveryFrameBoundaryThenResume|TestDegradationAndQuarantinePaths' \
    ./...

# Shard-coordinator smoke, race-checked: the sharded run must merge
# byte-identical to the single-process study over BOTH transports — the
# simulated network with worker kills and an induced lease expiry, and
# under seeded delay/drop/dup/partition faults plus a mid-stream worker
# death, and real loopback TCP with a worker kill — and a killed fleet's
# rerun must resume from its journals, torn tail included. The shuffled
# pass above already ran these once without -race; this pass races the
# coordinator event loop, the outbox pumps, and the lease takeover paths
# specifically, because those goroutines are exactly where a regression
# would hide.
echo "==> shard-coordinator smoke (-race, sim + loopback TCP)"
go test -race -count=1 \
    -run 'TestShardedRunMergesByteIdentical|TestShardNetSimMergesByteIdentical|TestShardNetTCPMergesByteIdentical|TestShardedRerunResumesInterruptedRun|TestShardNetRerunResumesAfterFleetDeath|TestShardNetDerivedPlanMergesByteIdentical' \
    ./internal/core

# Longitudinal smoke: the mini universe replayed across three root-program
# timeline points (two Android releases plus a public-CA distrust event),
# killed mid-timeline by fault injection while the second point's journal
# is being written, then resumed from the per-point WALs; every resumed
# per-point export must be byte-identical to the uninterrupted sweep's.
echo "==> longitudinal smoke (kill mid-timeline, resume, byte-compare)"
tldir=$(mktemp -d)
trap 'rm -rf "$tldir"' EXIT
pts="froyo,kitkat,distrust-ca-distrust"
go run ./cmd/pinstudy -scale mini -timeline -points "$pts" -export "$tldir/clean.json" > /dev/null
go run ./cmd/pinstudy -scale mini -timeline -points "$pts" -journal "$tldir/wal" \
    -kill-after 40 -kill-torn 5 -kill-at-point kitkat > /dev/null 2>&1 && {
    echo "longitudinal smoke: injected mid-timeline kill did not fire" >&2
    exit 1
}
go run ./cmd/pinstudy -scale mini -timeline -points "$pts" -journal "$tldir/wal" -export "$tldir/resumed.json" > /dev/null
for tag in froyo kitkat distrust-ca-distrust; do
    cmp "$tldir/clean-$tag.json" "$tldir/resumed-$tag.json"
done

# One iteration of every benchmark: proves the suite (including the
# crypto-plane trajectory benches) still runs; numbers are discarded.
echo "==> bench smoke"
./scripts/bench.sh --smoke

# perfbench smoke: a short study-rerun run of the benchmark. Every study
# it runs is exported and hashed against perfbench/expected.json, and a
# mismatch exits non-zero, so any drift in what the emulated network, the
# PKI or the analyses export fails the gate here.
echo "==> perfbench study-rerun smoke (export-SHA gate)"
bash perfbench/run.sh --workload study-rerun --seconds 3

# A short native-fuzz smoke over journal recovery: whatever bytes end up
# on disk, Recover must never panic and never return unverified data.
echo "==> go test -fuzz=FuzzJournalRecover (5s smoke)"
go test ./internal/journal -run NONE -fuzz 'FuzzJournalRecover' -fuzztime 5s

echo "OK"
