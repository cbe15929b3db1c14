#!/bin/sh
# The fleet-scale batch gate:
#   1. a seeded binary corpus generates, validates (header, framing,
#      per-record CRC), and batch-schedules single-process;
#   2. clean fleet runs at two different shard counts produce merged
#      reports byte-identical to the single-process run — the
#      round-robin merge is shard-count-invariant;
#   2b. starved with --budget-ratio 0.1 --max-delta-ii 0, a batch and a
#      2-worker fleet over a 40-loop corpus both exit 2 with the same
#      report;
#   3. kill -9 of a worker process mid-run: the fleet supervisor
#      restarts it with --resume from its fsync'd journal, and the
#      merged report is STILL byte-identical to the clean run;
#   4. the merged status file ends with "running":false and the
#      restart is visible in the fleet diagnostics;
#   5. a non-positive --status-interval is refused before any shard
#      starts;
#   6. SIGTERM to a live fleet stops every shard, and the fleet exits 1
#      with a settled status file;
#   7. a symlinked --report, for batch and for fleet, keeps the link
#      and fills its target;
#   8. the corpus gen and batch help pages render without a cmdliner
#      error.
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

# --- 2b. one exit protocol: a starved batch and fleet both exit 2 ------------

"$IMSC" corpus gen --out corpus-deg.ilb --count 40 --seed 1994 2> /dev/null
RC=0
"$IMSC" batch --corpus corpus-deg.ilb --jobs 1 --budget-ratio 0.1 \
  --max-delta-ii 0 --report single-deg.jsonl 2> /dev/null || RC=$?
test "$RC" -eq 2
rm -rf rundeg
mkdir rundeg
RC=0
"$IMSC" fleet --corpus corpus-deg.ilb --workers 2 --dir rundeg \
  --budget-ratio 0.1 --max-delta-ii 0 --report fleet-deg.jsonl \
  2> fleet-deg.stderr || RC=$?
test "$RC" -eq 2
cmp single-deg.jsonl fleet-deg.jsonl

# --- 3. kill -9 a worker mid-run; the merge must not notice ------------------

rm -rf runchaos
mkdir runchaos
"$IMSC" fleet --corpus corpus.ilb --workers 3 --dir runchaos \
  --report fleet-chaos.jsonl --status-file fleet-status.json \
  --status-interval 0.1 2> fleet-chaos.stderr &
FLEET_PID=$!

# The status file carries every worker's pid; kill the first live one
# as soon as the first heartbeat lands (early in the run, so the shard
# has real work left to resume).  The supervisor reaps a shard as soon
# as it exits, so poll often: the whole run takes about 0.1 s.
KILLED=0
i=0
while [ "$i" -lt 1000 ]; do
  if [ -f fleet-status.json ]; then
    PID=$(grep -o '"pid":[1-9][0-9]*' fleet-status.json | head -1 | cut -d: -f2 || true)
    if [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; then
      KILLED=1
      break
    fi
  fi
  sleep 0.01
  i=$((i + 1))
done
test "$KILLED" -eq 1

wait "$FLEET_PID"
FLEET_PID=""

cmp single.jsonl fleet-chaos.jsonl

# --- 4. observability: final snapshot settled, restart recorded --------------

grep -q '"running":false' fleet-status.json
grep -q "shard [0-9]*: crashed" fleet-chaos.stderr

# --- 5. a non-positive --status-interval is refused up front ----------------

rm -rf runbad
mkdir runbad
RC=0
"$IMSC" fleet --corpus corpus.ilb --workers 2 --dir runbad \
  --report fleet-bad.jsonl --status-interval 0 2> fleet-bad.stderr || RC=$?
test "$RC" -eq 1
test "$(wc -l < fleet-bad.stderr)" -eq 1
grep -q -- "--status-interval" fleet-bad.stderr
test -z "$(ls runbad)"

# --- 6. SIGTERM a live fleet: shards stopped, exit 1, status settled ---------

# A longer corpus, so the fleet is still running when the signal lands.
"$IMSC" corpus gen --out corpus-long.ilb --count 5000 --seed 2026 2> /dev/null
rm -rf runterm
mkdir runterm
"$IMSC" fleet --corpus corpus-long.ilb --workers 3 --dir runterm \
  --report fleet-term.jsonl --status-file term-status.json \
  --status-interval 0.1 2> fleet-term.stderr &
FLEET_PID=$!

# Keep the shard pids the first heartbeat lists.
PIDS=""
i=0
while [ -z "$PIDS" ] && [ "$i" -lt 1000 ]; do
  if [ -f term-status.json ]; then
    PIDS=$(grep -o '"pid":[1-9][0-9]*' term-status.json | cut -d: -f2 || true)
  fi
  [ -n "$PIDS" ] || sleep 0.01
  i=$((i + 1))
done
test -n "$PIDS"
kill -TERM "$FLEET_PID"

i=0
while kill -0 "$FLEET_PID" 2> /dev/null && [ "$i" -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
if kill -0 "$FLEET_PID" 2> /dev/null; then
  echo "fleet still running 5 s after SIGTERM" >&2
  exit 1
fi
RC=0
wait "$FLEET_PID" || RC=$?
FLEET_PID=""
test "$RC" -eq 1

grep -q '"running":false' term-status.json
LEFT=$(grep -o '"pid":[1-9][0-9]*' term-status.json | cut -d: -f2 || true)
for PID in $PIDS $LEFT; do
  if kill -0 "$PID" 2> /dev/null; then
    echo "shard pid $PID outlived the fleet" >&2
    exit 1
  fi
done

# --- 7. a symlinked --report is written through, not replaced ------------

# A report is staged and renamed into place only when its path is absent
# or a regular file; a rename over a link would leave the target empty.
: > batch-target.jsonl
ln -s batch-target.jsonl batch-link.jsonl
"$IMSC" batch --corpus corpus.ilb --jobs 2 --report batch-link.jsonl 2> /dev/null
test -L batch-link.jsonl
cmp single.jsonl batch-target.jsonl

rm -rf runlink
mkdir runlink
ln -s fleet-target.jsonl fleet-link.jsonl
"$IMSC" fleet --corpus corpus.ilb --workers 2 --dir runlink \
  --report fleet-link.jsonl 2> /dev/null
test -L fleet-link.jsonl
cmp single.jsonl fleet-target.jsonl

# --- 8. help pages render cleanly -------------------------------------------

for cmd in "corpus gen" batch; do
  # shellcheck disable=SC2086
  "$IMSC" $cmd --help=plain > help.out 2>&1
  if grep -q "cmdliner error" help.out; then
    echo "imsc $cmd --help=plain: $(grep "cmdliner error" help.out)" >&2
    exit 1
  fi
done

echo "fleet chaos gate: OK"
