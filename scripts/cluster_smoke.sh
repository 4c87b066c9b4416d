#!/usr/bin/env bash
# Cluster smoke test: boot two cmd/serve workers and a coordinator over
# them, run traffic through the full fan-out path, SIGKILL one worker
# mid-batch, and verify the cluster absorbs it. Run from the repository
# root; used by the CI cluster-smoke job and reproducible locally:
#
#   ./scripts/cluster_smoke.sh
#
# Pass criteria:
#   - coordinator /healthz, /run, /metrics answer 2xx and expose the
#     cluster_* metric families
#   - a batch survives kill -9 of a worker mid-run: "failed": 0, and the
#     coordinator logs the mark-down
#   - the restarted worker is marked back up (log line + /healthz)
#   - loadgen -check passes against the coordinator, and against the raw
#     worker list (multi-target round-robin)
#   - a second fleet's batch merge is byte-identical across a worker
#     SIGKILL, and the killed worker restarts on its pack volumes
#   - the restarted worker's /query lists every batch cell its /run
#     answers from its store
#   - one worker's own /batch and the coordinator's answer the same grid
#     with byte-identical bodies
#   - the coordinator answers a /query range scan merged across both
#     workers' catalogs (more rows than either worker holds alone)
#   - a coordinator /run sent with X-Request-Id answers under that ID, in
#     header and body
#   - a repeated `sweep -cache-dir` run dispatches zero cells with a
#     byte-identical CSV, for a solo grid and for -param cores
set -euo pipefail

P0="${CLUSTER_SMOKE_PORT:-8750}"   # coordinator
P1=$((P0 + 1))                     # worker 1
P2=$((P0 + 2))                     # worker 2
C="http://127.0.0.1:${P0}"
W1="http://127.0.0.1:${P1}"
W2="http://127.0.0.1:${P2}"
DIR="$(mktemp -d)"

# Under `set -e` any failing assertion lands here: kill the fleet, and on
# a nonzero exit dump every coordinator/worker log so CI failures are
# diagnosable from the job transcript alone.
cleanup() {
  rc=$?
  kill -9 "${COORD_PID:-}" "${W1_PID:-}" "${W2_PID:-}" "${W3_PID:-}" "${W4_PID:-}" 2>/dev/null || true
  if [ "${rc}" -ne 0 ]; then
    echo "== cluster smoke failed (exit ${rc}); logs follow" >&2
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

start_worker() { # $1 = port, $2 = log path, $3 = cache dir
  "${DIR}/serve" -addr "127.0.0.1:$1" -insts 200000 -cache-dir "$3" \
    -max-inflight 4 -queue 8 -workers 2 -run-timeout 30s >"$2" 2>&1 &
}

wait_healthy() { # $1 = base URL, $2 = name
  for i in $(seq 1 50); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "$2 never became healthy"
  exit 1
}

start_worker "${P1}" "${DIR}/w1.log" "${DIR}/cache1"
W1_PID=$!
start_worker "${P2}" "${DIR}/w2.log" "${DIR}/cache2"
W2_PID=$!
wait_healthy "${W1}" "worker 1"
wait_healthy "${W2}" "worker 2"

"${DIR}/serve" -coordinator -addr "127.0.0.1:${P0}" -workers "${W1},${W2}" \
  -insts 200000 -probe-every 200ms -probe-fails 2 -cluster-retries 4 \
  -retry-backoff 10ms -dispatch-timeout 60s >"${DIR}/coord.log" 2>&1 &
COORD_PID=$!
wait_healthy "${C}" "coordinator"

echo "== coordinator endpoints"
curl -fsS "${C}/healthz"
curl -fsS "${C}/run?bench=gcc&policy=PI&insts=100000" | head -c 400; echo
curl -fsS "${C}/metrics" | grep -E "^cluster_dispatched_total" || {
  echo "metrics missing cluster family"; exit 1; }

echo "== request ID: the coordinator forwards the caller's X-Request-Id"
curl -fsS -D "${DIR}/rid.hdr" -H 'X-Request-Id: smoke-1' \
  "${C}/run?bench=gcc&policy=PI&insts=100000" >"${DIR}/rid.json"
tr -d '\r' <"${DIR}/rid.hdr" | grep -qix 'X-Request-Id: smoke-1' || {
  echo "coordinator header lost the request ID:"; cat "${DIR}/rid.hdr"; exit 1; }
grep -q '"request_id": "smoke-1"' "${DIR}/rid.json" || {
  echo "worker body lost the request ID:"; head -c 400 "${DIR}/rid.json"; exit 1; }
echo "header and body both carry smoke-1"

echo "== kill -9 worker 1 mid-batch, batch must still complete"
curl -fsS "${C}/batch?policies=PI,PID&insts=400000" >"${DIR}/batch.json" &
BATCH_PID=$!
sleep 1
kill -9 "${W1_PID}"
wait "${BATCH_PID}" || { echo "batch request failed"; exit 1; }
grep -q '"failed": 0' "${DIR}/batch.json" || {
  echo "batch reported failures after worker kill:";
  grep -E '"failed"|"errors"' "${DIR}/batch.json"; exit 1; }
RUNS=$(grep -c '"benchmark"' "${DIR}/batch.json")
echo "batch completed: ${RUNS} runs, 0 failed"

echo "== coordinator marks the corpse down"
DOWN_OK=0
for i in $(seq 1 50); do
  curl -fsS -o "${DIR}/metrics.txt" "${C}/metrics" || true
  if grep -q "^cluster_workers_up 1" "${DIR}/metrics.txt"; then DOWN_OK=1; break; fi
  sleep 0.2
done
[ "${DOWN_OK}" = 1 ] || { echo "worker 1 never marked down"; exit 1; }
grep -q "marked down" "${DIR}/coord.log" || {
  echo "coordinator log missing mark-down line"; exit 1; }

echo "== restarted worker is marked back up"
start_worker "${P1}" "${DIR}/w1b.log" "${DIR}/cache1"
W1_PID=$!
wait_healthy "${W1}" "restarted worker 1"
UP_OK=0
for i in $(seq 1 50); do
  curl -fsS -o "${DIR}/metrics.txt" "${C}/metrics" || true
  if grep -q "^cluster_workers_up 2" "${DIR}/metrics.txt"; then UP_OK=1; break; fi
  sleep 0.2
done
[ "${UP_OK}" = 1 ] || { echo "restarted worker never marked up"; exit 1; }
grep -q "marked up" "${DIR}/coord.log" || {
  echo "coordinator log missing mark-up line"; exit 1; }

echo "== loadgen through the coordinator"
"${DIR}/loadgen" -url "${C}" -duration 3s -concurrency 4 -insts 100000 \
  -check -json "${DIR}/coord_load.json"

echo "== loadgen round-robin across the raw worker list"
"${DIR}/loadgen" -url "${W1},${W2}" -duration 3s -concurrency 4 -insts 100000 \
  -check -json "${DIR}/fleet_load.json"
grep -q '"targets"' "${DIR}/fleet_load.json" || {
  echo "loadgen report missing per-target breakdown"; exit 1; }

echo "== graceful coordinator shutdown"
kill -INT "${COORD_PID}"
for i in $(seq 1 40); do
  kill -0 "${COORD_PID}" 2>/dev/null || break
  sleep 0.25
done
kill -0 "${COORD_PID}" 2>/dev/null && { echo "coordinator did not exit"; exit 1; }
wait "${COORD_PID}" && RC=0 || RC=$?
[ "${RC}" = 0 ] || { echo "coordinator exited ${RC}"; exit 1; }
grep -q "drained, shut down" "${DIR}/coord.log" || {
  echo "coordinator log missing drain confirmation"; exit 1; }

kill -INT "${W1_PID}" "${W2_PID}" 2>/dev/null || true

echo "== pack store: a second fleet survives SIGKILL mid-batch"
P3=$((P0 + 3))
P4=$((P0 + 4))
W3="http://127.0.0.1:${P3}"
W4="http://127.0.0.1:${P4}"
start_worker "${P3}" "${DIR}/w3.log" "${DIR}/pack1"
W3_PID=$!
start_worker "${P4}" "${DIR}/w4.log" "${DIR}/pack2"
W4_PID=$!
wait_healthy "${W3}" "pack worker 1"
wait_healthy "${W4}" "pack worker 2"
"${DIR}/serve" -coordinator -addr "127.0.0.1:${P0}" -workers "${W3},${W4}" \
  -insts 200000 -probe-every 200ms -probe-fails 2 -cluster-retries 4 \
  -retry-backoff 10ms -dispatch-timeout 60s >"${DIR}/coord_pack.log" 2>&1 &
COORD_PID=$!
wait_healthy "${C}" "pack coordinator"

# Reference merge with the fleet intact (also warms the pack caches).
curl -fsS "${C}/batch?policies=PI,PID&insts=400000" >"${DIR}/pack_ref.json"
grep -q '"failed": 0' "${DIR}/pack_ref.json" || {
  echo "pack reference batch reported failures:";
  grep -E '"failed"|"errors"' "${DIR}/pack_ref.json"; exit 1; }

curl -fsS "${C}/batch?policies=PI,PID&insts=400000" >"${DIR}/pack_kill.json" &
BATCH_PID=$!
sleep 1
kill -9 "${W3_PID}"
wait "${BATCH_PID}" || { echo "pack batch request failed"; exit 1; }
grep -q '"failed": 0' "${DIR}/pack_kill.json" || {
  echo "pack batch reported failures after worker kill:";
  grep -E '"failed"|"errors"' "${DIR}/pack_kill.json"; exit 1; }
cmp -s "${DIR}/pack_ref.json" "${DIR}/pack_kill.json" || {
  echo "pack batch merge not byte-identical after SIGKILL:";
  diff "${DIR}/pack_ref.json" "${DIR}/pack_kill.json" | head -20; exit 1; }
echo "pack batch merge byte-identical across SIGKILL"

echo "== killed pack worker restarts on its pack directory (cold index rebuild)"
ls "${DIR}/pack1"/pack-*.dat >/dev/null 2>&1 || {
  echo "pack worker wrote no pack volumes"; ls -la "${DIR}/pack1"; exit 1; }
start_worker "${P3}" "${DIR}/w3b.log" "${DIR}/pack1"
W3_PID=$!
wait_healthy "${W3}" "rebuilt pack worker"
curl -fsS "${W3}/run?bench=gcc&policy=PI&insts=100000" >/dev/null || {
  echo "rebuilt pack worker cannot serve"; exit 1; }

echo "== one /batch: a worker and the coordinator answer one grid identically"
GRID="batch?benches=gcc,art&policies=none,PI&insts=50000"
curl -fsS "${C}/${GRID}" >"${DIR}/grid_coord.json"
curl -fsS "${W4}/${GRID}" >"${DIR}/grid_worker.json"
cmp -s "${DIR}/grid_coord.json" "${DIR}/grid_worker.json" || {
  echo "worker and coordinator /batch bodies differ:";
  diff "${DIR}/grid_coord.json" "${DIR}/grid_worker.json" | head -20; exit 1; }
echo "worker and coordinator /batch bodies byte-identical"

echo "== run catalog: coordinator merges a /query range scan across both workers"
count_of() { grep -m1 '"count"' "$1" | tr -dc '0-9'; }
curl -fsS "${C}/query?trigger=100:120&insts=400000" >"${DIR}/query_merge.json"
grep -q '"workers": 2' "${DIR}/query_merge.json" || {
  echo "range query not answered by both workers:";
  head -c 400 "${DIR}/query_merge.json"; exit 1; }
curl -fsS "${W3}/query?trigger=100:120&insts=400000" >"${DIR}/query_w3.json"
curl -fsS "${W4}/query?trigger=100:120&insts=400000" >"${DIR}/query_w4.json"
CN=$(count_of "${DIR}/query_merge.json")
C3=$(count_of "${DIR}/query_w3.json")
C4=$(count_of "${DIR}/query_w4.json")
[ "${CN}" -gt 0 ] || { echo "merged range query returned no rows"; exit 1; }
{ [ "${CN}" -gt "${C3}" ] && [ "${CN}" -gt "${C4}" ]; } || {
  echo "merge (${CN} rows) does not span both workers (${C3} + ${C4})"; exit 1; }
echo "range query merged ${CN} rows from workers holding ${C3} and ${C4}"
# Malformed filters must fail fast at the coordinator, not fan out.
QRC=$(curl -s -o /dev/null -w '%{http_code}' "${C}/query?trigger=banana")
[ "${QRC}" = 400 ] || { echo "bad filter got ${QRC}, want 400"; exit 1; }

echo "== restarted pack worker catalogs every result it serves from its store"
# Each cell is queried before it is run: a /run that misses simulates and
# catalogs the cell, so only a "cached": true answer is checked.
CELLS=$(tr -d ' \n' <"${DIR}/pack_ref.json" |
  grep -o '"benchmark":"[^"]*","policy":"[^"]*"' |
  sed 's/"benchmark":"\([^"]*\)","policy":"\([^"]*\)"/\1:\2/')
STORED=0
for cell in ${CELLS}; do
  q="bench=${cell%%:*}&policy=${cell#*:}&insts=400000"
  curl -fsS "${W3}/query?${q}" >"${DIR}/cell_query.json"
  curl -fsS "${W3}/run?${q}" >"${DIR}/cell_run.json"
  grep -q '"cached": true' "${DIR}/cell_run.json" || continue
  STORED=$((STORED + 1))
  [ "$(count_of "${DIR}/cell_query.json")" -gt 0 ] || {
    echo "restarted worker serves ${cell} from its store, but /query does not list it"; exit 1; }
done
[ "${STORED}" -gt 0 ] || { echo "restarted worker served no batch cell from its store"; exit 1; }
echo "restarted worker's /query lists all ${STORED} batch cells it serves from its store"

kill -INT "${COORD_PID}" "${W3_PID}" "${W4_PID}" 2>/dev/null || true

echo "== repeat sweep over one -cache-dir: zero cells dispatched"
go build -o "${DIR}/sweep" ./cmd/sweep
repeat_sweep() { # $1 = tag, $2 = grid cells, rest = sweep arguments
  local tag=$1 n=$2
  shift 2
  for pass in 1 2; do
    "${DIR}/sweep" "$@" -cache-dir "${DIR}/sweep_${tag}" \
      >"${DIR}/${tag}${pass}.csv" 2>"${DIR}/${tag}${pass}.log"
  done
  grep -q "cache pre-flight: 0/${n} cells warm, ${n} cold" "${DIR}/${tag}1.log" || {
    echo "first ${tag} pass did not dispatch the full grid:"; cat "${DIR}/${tag}1.log"; exit 1; }
  grep -q "cache pre-flight: ${n}/${n} cells warm, 0 cold" "${DIR}/${tag}2.log" || {
    echo "repeat ${tag} pass dispatched cells:"; cat "${DIR}/${tag}2.log"; exit 1; }
  cmp -s "${DIR}/${tag}1.csv" "${DIR}/${tag}2.csv" || {
    echo "${tag} CSV not identical across passes:";
    diff "${DIR}/${tag}1.csv" "${DIR}/${tag}2.csv"; exit 1; }
  echo "repeat ${tag} sweep dispatched 0 cells, CSV byte-identical"
}
repeat_sweep trigger 7 -param trigger -bench gcc -insts 100000
repeat_sweep cores 8 -param cores -bench hotneighbor -policy PID -insts 20000

echo "cluster smoke OK"
