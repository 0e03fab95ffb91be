#!/usr/bin/env bash
# faults.sh — run the robustness gauntlet: the fault-injection harness
# (randomized flaky-disk runs plus the deterministic degradation tests),
# the degraded-server HTTP tests, and the graceful-shutdown test, all
# under the race detector and repeated to shake out schedule-dependent
# bugs.
#
# Usage:
#   scripts/faults.sh            # default: -count=3
#   COUNT=10 scripts/faults.sh   # more repetitions
set -euo pipefail

cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"

# expect N PATTERN PKG fails unless -run PATTERN names exactly N tests of
# PKG: a pattern matching nothing passes silently, so a renamed harness
# test would drop out of the gauntlet unnoticed.
expect() {
    local got
    got="$(go test -list "$2" "$3" | grep -c '^Test' || true)"
    if [ "$got" -ne "$1" ]; then
        echo "faults.sh: -run '$2' names $got tests of $3, want $1" >&2
        exit 1
    fi
}

durable='TestFaultInjectionRecovery|TestDegradeOnFsyncError|TestTornWriteRecovered|TestReopenFailsWhileDiskBroken|TestCompactionFaultKeepsPriorCheckpoint|TestRotationFaultDegradesButRecovers'
httpapi='TestDegradedServerServesReadsRefusesWrites|TestRecoverRequiresDurableStore|TestBodyCap'
server='TestGracefulShutdownClosesStore'
expect 6 "$durable" ./internal/durable/
expect 3 "$httpapi" ./internal/httpapi/
expect 1 "$server" ./cmd/graphitti-server/

go test -race -count="$COUNT" -v -run "$durable" ./internal/durable/

go test -race -count="$COUNT" ./internal/faultfs/

go test -race -count="$COUNT" -run "$httpapi" ./internal/httpapi/

go test -race -count="$COUNT" -run "$server" ./cmd/graphitti-server/
