#!/bin/sh
# The scheduling daemon end to end:
#   1. a cold served corpus is byte-identical to an `imsc batch` run;
#   2. a repeat request is served entirely from cache, byte-identically;
#   3. concurrent clients — cold (racing the same uncached loops) and
#      warm — all receive the batch-identical report;
#   3b. starved with --budget-ratio 0.1 --max-delta-ii 0, batch and
#      request both exit 2 with the same report, and request leaves no
#      staged .tmp file behind;
#   4. kill -9 the daemon, restart it against the same cache file (with
#      a simulated torn append): it starts warm, answers everything
#      from cache byte-identically, reports the hits in --stats, and a
#      graceful shutdown publishes the final metrics and
#      "running":false status and removes the socket;
#   5. a flooded 1-deep queue answers with structured overloaded
#      responses (backpressure), and a per-request deadline preempts a
#      hung request mid-spin;
#   6. out of file descriptors, the daemon refuses the surplus
#      connections, keeps serving, and serves again once they are gone.
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf serve.d && mkdir serve.d && cd serve.d

# Unix-domain socket paths are limited to ~100 bytes and the dune
# sandbox cwd can exceed that, so the socket (and only the socket)
# lives in a short mktemp dir; all artifacts stay in the sandbox cwd.
SOCKDIR=$(mktemp -d /tmp/imsc-serve.XXXXXX)
SOCK="$SOCKDIR/imsc.sock"
DAEMON_PID=""
cleanup() {
  if [ -n "$DAEMON_PID" ]; then kill -9 "$DAEMON_PID" 2>/dev/null || true; fi
  rm -rf "$SOCKDIR"
}
trap cleanup EXIT INT TERM

mkdir -p scorpus scorpus2
for loop in lfk01 lfk03 lfk05 lfk07 lfk09 lfk12; do
  "$IMSC" export "$loop" > "scorpus/$loop.loop"
done
for loop in lfk02 lfk15 lfk20 lfk22; do
  "$IMSC" export "$loop" > "scorpus2/$loop.loop"
done

# --- 1. cold serve = batch, byte for byte -----------------------------------

"$IMSC" batch scorpus --jobs 2 --report batch.jsonl 2> /dev/null
"$IMSC" batch scorpus2 --jobs 2 --report batch2.jsonl 2> /dev/null

"$IMSC" serve --socket "$SOCK" --jobs 2 --cache sched.cache \
  2> serve1.stderr &
DAEMON_PID=$!

"$IMSC" request scorpus --socket "$SOCK" --report served1.jsonl 2> req1.stderr
cmp batch.jsonl served1.jsonl
grep -q "0 of 6 loop(s) served from cache" req1.stderr

# --- 2. repeat request: all cache hits, byte-identical ----------------------

"$IMSC" request scorpus --socket "$SOCK" --report served2.jsonl 2> req2.stderr
cmp batch.jsonl served2.jsonl
grep -q "6 of 6 loop(s) served from cache" req2.stderr

# --- 3. concurrent clients ---------------------------------------------------

# Cold: two clients race the same uncached loops (first writer wins the
# cache; both must still see batch-identical bytes).
"$IMSC" request scorpus2 --socket "$SOCK" --report cold1.jsonl 2> /dev/null &
C1=$!
"$IMSC" request scorpus2 --socket "$SOCK" --report cold2.jsonl 2> /dev/null &
C2=$!
wait $C1
wait $C2
cmp batch2.jsonl cold1.jsonl
cmp batch2.jsonl cold2.jsonl

# Warm: same race, everything cached.
"$IMSC" request scorpus --socket "$SOCK" --report warm1.jsonl 2> /dev/null &
C1=$!
"$IMSC" request scorpus --socket "$SOCK" --report warm2.jsonl 2> /dev/null &
C2=$!
wait $C1
wait $C2
cmp batch.jsonl warm1.jsonl
cmp batch.jsonl warm2.jsonl

# --- 3b. one exit protocol: a starved batch and request both exit 2 ----------

# Under --budget-ratio 0.1 --max-delta-ii 0 some loops degrade to the
# acyclic list schedule: batch and request exit 2 with the same report,
# and request stages its --report like batch does (no .tmp left behind).
RC=0
"$IMSC" batch scorpus --jobs 2 --budget-ratio 0.1 --max-delta-ii 0 \
  --report batch-deg.jsonl 2> /dev/null || RC=$?
test "$RC" -eq 2
RC=0
"$IMSC" request scorpus --socket "$SOCK" --budget-ratio 0.1 --max-delta-ii 0 \
  --report served-deg.jsonl 2> /dev/null || RC=$?
test "$RC" -eq 2
cmp batch-deg.jsonl served-deg.jsonl
test -z "$(ls ./*.tmp 2> /dev/null)"

# --- 4. kill -9, warm restart, graceful shutdown ----------------------------

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
# What a SIGKILL mid-append leaves behind: a final frame cut short (it
# claims 100 payload bytes and holds 10).
printf '\144\000\000\000\000\000\000\000\004\000\000\000torn{}' >> sched.cache

"$IMSC" serve --socket "$SOCK" --jobs 2 --cache sched.cache \
  --status-file serve-status.json --metrics serve-metrics.json \
  2> serve2.stderr &
DAEMON_PID=$!

"$IMSC" request scorpus --socket "$SOCK" --report served3.jsonl 2> req3.stderr
cmp batch.jsonl served3.jsonl
grep -q "6 of 6 loop(s) served from cache" req3.stderr
grep -q "torn tail truncated" serve2.stderr

"$IMSC" request --socket "$SOCK" --stats > stats.json 2> /dev/null
grep -q '"serve.cache_hits":6' stats.json

"$IMSC" request --socket "$SOCK" --shutdown 2> shutdown.stderr
i=0
while [ -S "$SOCK" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
test ! -e "$SOCK"
grep -q '"running":false' serve-status.json
grep -q '"serve.cache_hits":6' serve-metrics.json

# --- 5. backpressure and per-request deadlines ------------------------------

"$IMSC" serve --socket "$SOCK" --jobs 1 --queue 1 \
  --inject-spin "lfk09.loop:20" 2> serve3.stderr &
DAEMON_PID=$!

# The spinning request occupies the only worker until its deadline...
"$IMSC" request scorpus/lfk09.loop --socket "$SOCK" --deadline 1.5 \
  > spin.jsonl 2> spin.stderr &
SPIN=$!
sleep 0.7
# ...so of three fresh requests, at most one queues and the rest are
# answered overloaded immediately.
if "$IMSC" request scorpus/lfk01.loop scorpus/lfk03.loop scorpus/lfk05.loop \
  --socket "$SOCK" > flood.jsonl 2> flood.stderr; then
  echo "a flooded queue must report casualties" >&2
  exit 1
fi
test "$(grep -c '"status":"overloaded"' flood.jsonl)" -ge 1
wait $SPIN || true
grep -q '"status":"cancelled"' spin.jsonl
grep -q '"quarantined":true' spin.jsonl

"$IMSC" request --socket "$SOCK" --shutdown 2> /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

# --- 6. out of descriptors ----------------------------------------------------

# With its descriptor limit four above its idle baseline, the daemon
# cannot accept a dozen slow clients: it warns once, keeps serving the
# connections it holds, and accepts again once the slow clients are gone.
"$IMSC" serve --socket "$SOCK" --jobs 1 2> /dev/null &
DAEMON_PID=$!
"$IMSC" request --socket "$SOCK" --stats > /dev/null 2>&1
baseline=$(ls "/proc/$DAEMON_PID/fd" | wc -l)
"$IMSC" request --socket "$SOCK" --shutdown 2> /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

sh -c 'ulimit -n "$1"; exec "$2" serve --socket "$3" --jobs 1' sh \
  $((baseline + 4)) "$IMSC" "$SOCK" 2> emfile.stderr &
DAEMON_PID=$!
"$IMSC" request --socket "$SOCK" --stats > /dev/null 2>&1
DRIBBLERS=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12; do
  "$IMSC" request --socket "$SOCK" --inject-dribble 1 --timeout 20 \
    2> /dev/null &
  DRIBBLERS="$DRIBBLERS $!"
done
sleep 2
if ! kill -0 "$DAEMON_PID" 2> /dev/null; then
  for p in $DRIBBLERS; do kill "$p" 2> /dev/null || true; done
  echo "serve.sh: the daemon died out of descriptors" >&2
  cat emfile.stderr >&2
  exit 1
fi
for p in $DRIBBLERS; do kill "$p" 2> /dev/null || true; done
for p in $DRIBBLERS; do wait "$p" 2> /dev/null || true; done
"$IMSC" request scorpus/lfk01.loop --socket "$SOCK" \
  --report emfile.jsonl 2> /dev/null
"$IMSC" batch scorpus/lfk01.loop --jobs 1 --report emfile-batch.jsonl \
  2> /dev/null
cmp emfile-batch.jsonl emfile.jsonl
"$IMSC" request --socket "$SOCK" --shutdown 2> /dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
test "$(grep -c 'cannot accept a connection' emfile.stderr)" -eq 1

echo "serve.sh: all checks passed"
