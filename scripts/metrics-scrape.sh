#!/usr/bin/env bash
# metrics-scrape.sh — boot a real graphitti-server, exercise a handful of
# endpoints so every instrumented subsystem has samples, scrape
# GET /metrics, and fail if the payload is not valid Prometheus text
# exposition with at least MIN_FAMILIES metric families (HTTP, WAL,
# durable store, core writer and query metrics together clear 20).
#
# Usage:
#   scripts/metrics-scrape.sh
#   MIN_FAMILIES=25 scripts/metrics-scrape.sh
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_FAMILIES="${MIN_FAMILIES:-20}"
WORK="$(mktemp -d)"
SERVER_LOG="$WORK/server.log"
SCRAPE="$WORK/metrics.txt"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/graphitti-server" ./cmd/graphitti-server

# Durable mode so the WAL and durable-store metrics are live too;
# -slow-request 1ns forces the slow-request span-breakdown log line on
# every request so the tracing pipeline is checked end to end.
"$WORK/graphitti-server" -addr 127.0.0.1:0 -data-dir "$WORK/data" \
    -study influenza -anns 50 -slow-request 1ns 2>"$SERVER_LOG" &
PID=$!

# The listen address is logged structured on stderr: … msg=listening addr=…
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/.*msg=listening addr=\([0-9.:]*\).*/\1/p' "$SERVER_LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "server exited during startup:" >&2; cat "$SERVER_LOG" >&2; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never logged a listen address" >&2; cat "$SERVER_LOG" >&2; exit 1; }
BASE="http://$ADDR"

# Touch every instrumented layer: reads, a write, a query, a search, an
# error (for the request-ID envelope path) and a 404 (the "unmatched"
# route label).
curl -fsS "$BASE/healthz" >/dev/null
curl -fsS "$BASE/readyz" >/dev/null
curl -fsS "$BASE/api/stats" >/dev/null
curl -fsS "$BASE/api/annotations" >/dev/null
curl -fsS -X POST "$BASE/api/query" \
    -d '{"query":"select contents where { ?a isa annotation ; contains \"protease\" . }"}' >/dev/null
curl -fsS -X POST "$BASE/api/search" \
    -d '{"expr":"contains(/annotation/body, \"protease\")"}' >/dev/null
curl -fsS -X POST "$BASE/api/annotations" \
    -d '{"creator":"ci","date":"2008-04-07","body":"scrape probe","marks":[{"type":"interval","domain":"segment1","lo":10,"hi":40}]}' >/dev/null
curl -sS "$BASE/api/annotations/999999" >/dev/null   # 404 with requestId envelope
curl -sS "$BASE/no/such/route" >/dev/null            # "unmatched" route label

# --- span tracing checks ---------------------------------------------

# Every response must carry a W3C traceparent; an incoming one must be
# honored (same trace ID echoed back).
UPSTREAM="00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
TP="$(curl -fsSD - -o /dev/null -H "traceparent: $UPSTREAM" "$BASE/api/stats" \
      | tr -d '\r' | sed -n 's/^[Tt]raceparent: //p')"
case "$TP" in
    00-4bf92f3577b34da6a3ce929d0e0e4736-*) : ;;
    *) echo "traceparent not honored/echoed: got '$TP'" >&2; exit 1 ;;
esac

# ?trace=1 on a durable commit returns the span tree inline; render it
# with the CLI and require every pipeline layer's span kind.
TRACED="$WORK/traced.json"
curl -fsS -X POST "$BASE/api/annotations?trace=1" \
    -d '{"creator":"ci","date":"2008-04-07","body":"traced probe","marks":[{"type":"interval","domain":"segment1","lo":50,"hi":80}]}' \
    >"$TRACED"
TREE="$(go run ./cmd/graphitti traces -f "$TRACED")"
for kind in http router shard.writer commit wal.flush; do
    echo "$TREE" | grep -q "$kind" || {
        echo "?trace=1 span tree missing kind '$kind':" >&2
        echo "$TREE" >&2; exit 1
    }
done

# /debug/traces serves the rings; the traced request must be retrievable
# and the min-duration filter must parse.
DUMP="$WORK/traces.json"
curl -fsS "$BASE/debug/traces?route=POST%20/api/annotations" >"$DUMP"
RINGS="$(go run ./cmd/graphitti traces -f "$DUMP")"
echo "$RINGS" | grep -q "http" || {
    echo "/debug/traces returned no http root spans" >&2; exit 1
}
curl -fsS "$BASE/debug/traces?min=10h" | grep -q '"count":0' || {
    echo "/debug/traces?min=10h should return zero traces" >&2; exit 1
}

# The forced slow-request log line must carry the span breakdown.
grep -q 'slow request' "$SERVER_LOG" && grep -q 'spans=' "$SERVER_LOG" || {
    echo "no slow-request span-breakdown log line despite -slow-request 1ns" >&2
    cat "$SERVER_LOG" >&2; exit 1
}

# ---------------------------------------------------------------------

curl -fsS "$BASE/metrics" >"$SCRAPE"

# Strict format validation + family floor via the CLI's validator.
go run ./cmd/graphitti metrics-lint -f "$SCRAPE" -min-families "$MIN_FAMILIES"

# Spot-check that each subsystem actually reported.
for family in graphitti_http_requests_total \
              graphitti_wal_fsync_duration_seconds \
              graphitti_durable_health_state \
              graphitti_store_commit_duration_seconds \
              graphitti_query_duration_seconds \
              graphitti_trace_span_duration_seconds \
              graphitti_shard_busy_micros \
              process_uptime_seconds; do
    grep -q "^# TYPE $family " "$SCRAPE" || {
        echo "family $family missing from /metrics scrape" >&2; exit 1
    }
done

# /debug/vars must be one JSON object (cheap shape check; the httpapi
# tests parse it properly).
VARS="$(curl -fsS "$BASE/debug/vars")"
case "$VARS" in
    {*}) : ;;
    *) echo "/debug/vars is not a JSON object: ${VARS:0:80}" >&2; exit 1 ;;
esac

echo "metrics scrape ok: $(grep -c '^# TYPE' "$SCRAPE") families from $BASE/metrics" >&2
