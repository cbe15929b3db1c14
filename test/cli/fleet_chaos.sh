#!/bin/sh
# The fleet-scale batch gate:
#   1. a seeded binary corpus generates, validates (header, framing,
#      per-record CRC), and batch-schedules single-process;
#   2. clean fleet runs at two different shard counts produce merged
#      reports byte-identical to the single-process run — the
#      round-robin merge is shard-count-invariant;
#   3. kill -9 of a worker process mid-run: the fleet supervisor
#      restarts it with --resume from its fsync'd journal, and the
#      merged report is STILL byte-identical to the clean run;
#   4. the merged status file ends with "running":false and the
#      restart is visible in the fleet diagnostics.
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf fleet_chaos.d && mkdir fleet_chaos.d && cd fleet_chaos.d

FLEET_PID=""
cleanup() {
  if [ -n "$FLEET_PID" ]; then kill -9 "$FLEET_PID" 2>/dev/null || true; fi
}
trap cleanup EXIT INT TERM

# --- 1. corpus generation + integrity + single-process reference -------------

"$IMSC" corpus gen --out corpus.ilb --count 600 --seed 1994 2> /dev/null
"$IMSC" corpus info corpus.ilb > corpus-info.out
grep -q "600 record(s)" corpus-info.out

"$IMSC" batch --corpus corpus.ilb --jobs 1 --report single.jsonl 2> /dev/null
test "$(wc -l < single.jsonl)" -eq 600

# --- 2. clean fleets at two shard counts -------------------------------------

for W in 2 5; do
  rm -rf "run$W"
  mkdir "run$W"
  "$IMSC" fleet --corpus corpus.ilb --workers "$W" --dir "run$W" \
    --report "fleet$W.jsonl" 2> "fleet$W.stderr"
  cmp single.jsonl "fleet$W.jsonl"
done

# --- 3. kill -9 a worker mid-run; the merge must not notice ------------------

rm -rf runchaos
mkdir runchaos
"$IMSC" fleet --corpus corpus.ilb --workers 3 --dir runchaos \
  --report fleet-chaos.jsonl --status-file fleet-status.json \
  --status-interval 0.1 2> fleet-chaos.stderr &
FLEET_PID=$!

# The status file carries every worker's pid; kill the first live one
# as soon as the first heartbeat lands (early in the run, so the shard
# has real work left to resume).
KILLED=0
i=0
while [ "$i" -lt 100 ]; do
  if [ -f fleet-status.json ]; then
    PID=$(grep -o '"pid":[1-9][0-9]*' fleet-status.json | head -1 | cut -d: -f2 || true)
    if [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; then
      KILLED=1
      break
    fi
  fi
  sleep 0.1
  i=$((i + 1))
done
test "$KILLED" -eq 1

wait "$FLEET_PID"
FLEET_PID=""

cmp single.jsonl fleet-chaos.jsonl

# --- 4. observability: final snapshot settled, restart recorded --------------

grep -q '"running":false' fleet-status.json
grep -q "restart" fleet-chaos.stderr

echo "fleet chaos gate: OK"
