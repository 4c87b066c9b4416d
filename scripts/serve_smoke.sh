#!/usr/bin/env bash
# Serving smoke test: boot cmd/serve, exercise the basic endpoints, drive a
# loadgen overload against a deliberately tiny admission limit, and verify
# graceful SIGINT drain. Run from the repository root; used by the CI smoke
# job and reproducible locally:
#
#   ./scripts/serve_smoke.sh
#
# Pass criteria (loadgen -check plus the assertions below):
#   - /healthz, /run, /metrics answer 2xx
#   - under ~8x overload every response is 2xx or 429, sheds are fast
#     (p99 shed latency < 10ms), and not everything is shed
#   - mixed /run + /batch traffic stays clean (429 allowed, 5xx not)
#   - SIGINT cancels a running /batch, which answers with a structured
#     error, and serve exits 0 after every handler has returned
set -euo pipefail

PORT="${SMOKE_PORT:-8741}"
URL="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
SERVE_LOG="${DIR}/serve.log"

# Under `set -e` any failing assertion lands here: kill the server, and on
# a nonzero exit dump every server log so CI failures are diagnosable from
# the job transcript alone.
cleanup() {
  rc=$?
  kill -9 "${SERVE_PID:-}" 2>/dev/null || true
  if [ "${rc}" -ne 0 ]; then
    echo "== smoke failed (exit ${rc}); server logs follow" >&2
    for f in "${DIR}"/*.log; do
      [ -e "${f}" ] || continue
      echo "--- ${f##*/}" >&2
      cat "${f}" >&2
    done
  fi
  rm -rf "${DIR}"
  exit "${rc}"
}
trap cleanup EXIT

go build -o "${DIR}/serve" ./cmd/serve
go build -o "${DIR}/loadgen" ./cmd/loadgen

# Tiny admission limit so modest loadgen concurrency is a real overload:
# 1 slot, no queue; a /batch holds that slot like a /run.
"${DIR}/serve" -addr "127.0.0.1:${PORT}" -insts 50000 \
  -max-inflight 1 -queue 0 -workers 1 \
  -run-timeout 30s -drain-timeout 30s >"${SERVE_LOG}" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
  curl -fsS "${URL}/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "serve never became healthy"; exit 1; }
  sleep 0.2
done

echo "== basic endpoints"
curl -fsS "${URL}/healthz"
curl -fsS "${URL}/run?insts=50000" | head -c 400; echo
curl -fsS "${URL}/metrics" | grep -E "^serve_admitted_total" || {
  echo "metrics missing serving family"; exit 1; }

echo "== overload: 8 workers against 1 slot, sheds must be fast 429s"
# The 10ms p99 gate assumes the load generator has a core to itself; on a
# single-core host the client-side measurement includes the generator's
# own scheduling delay, so the bound is relaxed there.
MAX_SHED_P99=10ms
if [ "$(nproc)" -le 1 ]; then MAX_SHED_P99=50ms; fi
"${DIR}/loadgen" -url "${URL}" -duration 5s -concurrency 8 -insts 200000 \
  -check -max-shed-p99 "${MAX_SHED_P99}" -json "${DIR}/overload.json"
grep -E '"shed_429"|"shed_rate"|"p99"' "${DIR}/overload.json" || true

echo "== mixed /run + /batch traffic"
"${DIR}/loadgen" -url "${URL}" -duration 5s -concurrency 4 -insts 100000 \
  -batch-frac 0.01 -check -json "${DIR}/mixed.json"

echo "== graceful drain on SIGINT"
# Park a long batch so the drain actually has work to cancel and await:
# SIGINT once it holds the admission slot.
curl -sS "${URL}/batch?benches=gcc&policies=none&insts=500000000" >"${DIR}/drain_batch.json" &
BATCH_PID=$!
PARKED=0
for i in $(seq 1 100); do
  curl -fsS -o "${DIR}/metrics.txt" "${URL}/metrics" || true
  grep -Eq '^serve_inflight_runs [1-9]' "${DIR}/metrics.txt" && { PARKED=1; break; }
  sleep 0.1
done
[ "${PARKED}" = 1 ] || { echo "the long batch never took the admission slot"; exit 1; }
kill -INT "${SERVE_PID}"
DRAIN_OK=0
for i in $(seq 1 60); do
  if ! kill -0 "${SERVE_PID}" 2>/dev/null; then DRAIN_OK=1; break; fi
  sleep 0.5
done
[ "${DRAIN_OK}" = 1 ] || { echo "serve did not exit after SIGINT"; exit 1; }
wait "${SERVE_PID}" && RC=0 || RC=$?
[ "${RC}" = 0 ] || { echo "serve exited ${RC} (drain failed)"; exit 1; }
grep -q "drained, shut down" "${SERVE_LOG}" || {
  echo "serve log missing drain confirmation"; exit 1; }
wait "${BATCH_PID}" || true
grep -q 'shutting down' "${DIR}/drain_batch.json" || {
  echo "the cancelled batch did not answer with the shutdown error:";
  cat "${DIR}/drain_batch.json"; exit 1; }

echo "smoke OK"
