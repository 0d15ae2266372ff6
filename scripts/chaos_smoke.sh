#!/usr/bin/env bash
# Chaos smoke: the crash-recovery contract, end to end, on a race-enabled
# build of the real binary.
#
# Phase 1 evaluates a sweep synchronously — the uninterrupted baseline.
# Phase 2 runs the same sweep as an async job with a panic failpoint armed
# on the job.result site (YIELD_FAILPOINTS): the panic fires on the sweep's
# collector goroutine after the second checkpointed result and kills the
# whole process — the fault framework's stand-in for power loss, leaving
# the journaled prefix as the only survivor. Phase 3 restarts on the same
# -store with the sweep store's read failpoint (store.load) armed, so every
# persisted sweep table is skipped and the resumed job sweeps cold. The
# journal fires its own site (journal.load), so the server must still
# re-adopt it, resume the job from its checkpoint, and finish with results
# byte-identical to the baseline.
# The server runs with two workers and the sweep has six widths, so the
# resumed four-spec suffix runs on the shared pool with a helper goroutine.
#
# Run from the repository root: ./scripts/chaos_smoke.sh
set -euo pipefail

ADDR=127.0.0.1:8111
BASE="http://$ADDR"
STORE="$(mktemp -d)"
WORK="$(mktemp -d)"
BIN="$WORK/yieldserver"

go build -race -o "$BIN" ./cmd/yieldserver

SERVER_PID=
start_server() { # $1 = YIELD_FAILPOINTS spec (empty = no faults)
  YIELD_FAILPOINTS="${1:-}" "$BIN" -addr "$ADDR" -store "$STORE" -workers 2 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "chaos smoke: server did not come up" >&2
  exit 1
}
stop_server() {
  kill -TERM "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
}
# A failed check exits early; never leave a server behind.
trap stop_server EXIT

SPEC='{"kind":"pf","width_nm":155,"sweep":{"widths_nm":[100,120,140,160,180,200]}}'

# --- Phase 1: uninterrupted baseline -------------------------------------
start_server ""
curl -sf -X POST "$BASE/v2/query" -d "$SPEC" \
  | jq -c '[.results[].pf]' > "$WORK/baseline.json"
stop_server

# --- Phase 2: submit the job, then die mid-sweep --------------------------
start_server "job.result=panic@nth=2"
JOB="$(curl -sf -X POST "$BASE/v2/query?async=1" -d "$SPEC" | jq -r '.id')"
test -n "$JOB"
# No kill from here: the armed panic must take the process down on its own.
if wait "$SERVER_PID" 2>/dev/null; then
  echo "chaos smoke: server survived an armed job.result panic" >&2
  exit 1
fi
# The atomically-renamed journal record survived the crash.
test -f "$STORE/jobs/$JOB.job"

# --- Phase 3: restart, sweep store unreadable; adopts, resumes, matches ---
start_server "store.load=error(chaos: store read)"
STATE=""
for _ in $(seq 1 300); do
  STATE="$(curl -sf "$BASE/v1/jobs/$JOB" | jq -r '.state' || echo '')"
  case "$STATE" in
    done) break ;;
    failed)
      echo "chaos smoke: resumed job failed" >&2
      curl -s "$BASE/v1/jobs/$JOB" >&2
      exit 1
      ;;
  esac
  sleep 0.2
done
test "$STATE" = done
curl -sf "$BASE/v1/jobs/$JOB" \
  | jq -c '[.query_results[].pf]' > "$WORK/resumed.json"
cmp "$WORK/baseline.json" "$WORK/resumed.json"
# The record was adopted from the journal, not quarantined; every sweep
# record was skipped, and none quarantined.
curl -sf "$BASE/v1/stats" \
  | jq -e '.job_journal.loads >= 1 and .job_journal.quarantined == 0
      and .store.loads == 0 and .store.rejects >= 1 and .store.quarantined == 0' >/dev/null
stop_server

echo "chaos smoke: OK (job $JOB resumed byte-identically after crash, sweep store unreadable)"
