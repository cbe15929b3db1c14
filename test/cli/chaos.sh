#!/bin/sh
# The self-healing service under fire (the chaos gate):
#   1. a supervised daemon injecting seeded socket-level faults (torn
#      frames, corrupted frame guards, severed connections) still
#      serves output byte-identical to a cold `imsc batch` run — the
#      retrying client absorbs every fault by reconnecting and
#      replaying exactly the unanswered (idempotent) requests;
#   2. kill -9 of the daemon generation mid-request: the supervisor
#      restarts it with backoff, the client replays onto the new
#      generation, output stays byte-identical, and the restart shows
#      up in the serve.restarts gauge;
#   3. a slow-loris connection (one byte at a time, frame never
#      completed) is severed by the per-connection read deadline while
#      real clients keep being served;
#   4. SIGTERM to the supervisor is a graceful stop: forwarded to the
#      daemon, exit 0, socket removed;
#   5. a --cache-max-bytes-bounded daemon keeps the cache file under
#      the cap on disk across compaction, survives a corrupt log tail,
#      and restarts warm with its resident subset still hitting;
#      `imsc cache stats|compact` work offline on the same file;
#   6. a crash-looping daemon (unreadable cache) opens the supervisor's
#      circuit breaker instead of restarting forever.
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf chaos.d && mkdir chaos.d && cd chaos.d

# Unix-domain socket paths are limited to ~100 bytes and the dune
# sandbox cwd can exceed that, so the socket (and only the socket)
# lives in a short mktemp dir; all artifacts stay in the sandbox cwd.
SOCKDIR=$(mktemp -d /tmp/imsc-chaos.XXXXXX)
SOCK="$SOCKDIR/imsc.sock"
SUP_PID=""
DAEMON_PID=""
cleanup() {
  if [ -n "$SUP_PID" ]; then kill -9 "$SUP_PID" 2>/dev/null || true; fi
  if [ -f pidfile ]; then kill -9 "$(cat pidfile)" 2>/dev/null || true; fi
  if [ -n "$DAEMON_PID" ]; then kill -9 "$DAEMON_PID" 2>/dev/null || true; fi
  rm -rf "$SOCKDIR"
}
trap cleanup EXIT INT TERM

mkdir -p ccorpus
for loop in lfk01 lfk03 lfk05 lfk07; do
  "$IMSC" export "$loop" > "ccorpus/$loop.loop"
done
"$IMSC" export lfk09 > lfk09.loop

# References: what a cold, daemonless run emits.
"$IMSC" batch ccorpus --jobs 2 --report batch.jsonl 2> /dev/null
"$IMSC" batch lfk09.loop --jobs 1 --report batch9.jsonl 2> /dev/null
"$IMSC" batch ccorpus/lfk07.loop --jobs 1 --report batch7.jsonl 2> /dev/null

# --- 1. byte-identity under seeded fault injection ---------------------------

"$IMSC" serve --socket "$SOCK" --jobs 2 --cache chaos.cache \
  --supervise --pidfile pidfile --backoff 0.05 --backoff-cap 0.5 \
  --conn-timeout 1 --inject-spin "lfk09.loop:2" \
  --chaos 'seed=42,torn=0.15,garbage=0.1,sever=0.05' \
  2> serve-chaos.stderr &
SUP_PID=$!

"$IMSC" request ccorpus --socket "$SOCK" --retries 25 \
  --report out-cold.jsonl 2> /dev/null
cmp batch.jsonl out-cold.jsonl

"$IMSC" request ccorpus --socket "$SOCK" --retries 25 \
  --report out-warm.jsonl 2> req-warm.stderr
cmp batch.jsonl out-warm.jsonl
grep -q "4 of 4 loop(s) served from cache" req-warm.stderr
grep -q "CHAOS INJECTION ON" serve-chaos.stderr

# --- 2. kill -9 mid-request: supervised restart, replay converges ------------

# The spin hook pins lfk09 open so the SIGKILL reliably lands with the
# request in flight; the client then replays it onto the restarted
# generation (which spins again, schedules, and answers).
"$IMSC" request lfk09.loop --socket "$SOCK" --retries 25 \
  --report out9.jsonl 2> /dev/null &
CLIENT=$!
sleep 0.7
kill -9 "$(cat pidfile)"
wait $CLIENT
cmp batch9.jsonl out9.jsonl
grep -q "restarted by the supervisor" serve-chaos.stderr

"$IMSC" request --socket "$SOCK" --retries 25 --stats > stats.json 2> /dev/null
grep -q '"serve.restarts":1' stats.json

# --- 3. slow-loris severed while real clients are served ---------------------

"$IMSC" request --socket "$SOCK" --inject-dribble 0.2 --timeout 10 \
  2> dribble.stderr
grep -q "severed" dribble.stderr
# The daemon is still healthy afterwards.
"$IMSC" request ccorpus --socket "$SOCK" --retries 25 \
  --report out-after.jsonl 2> /dev/null
cmp batch.jsonl out-after.jsonl

# --- 4. SIGTERM to the supervisor is a graceful stop -------------------------

kill -TERM "$SUP_PID"
wait "$SUP_PID"
SUP_PID=""
test ! -e "$SOCK"
test ! -f pidfile

# --- 5. bounded cache: under the cap on disk, warm across restarts -----------

# A cap around 60% of the corpus's report bytes forces eviction and
# log compaction without ever refusing a single entry.  One scheduling
# worker makes the insertion order (and so the surviving resident —
# the last-completed loop, lfk07) deterministic.
CAP=$(( $(wc -c < batch.jsonl) * 3 / 5 + 64 ))

"$IMSC" serve --socket "$SOCK" --jobs 1 --cache bounded.cache \
  --cache-max-bytes "$CAP" --cache-policy lru 2> serve-bounded.stderr &
DAEMON_PID=$!

"$IMSC" request ccorpus --socket "$SOCK" --report bout1.jsonl 2> /dev/null
cmp batch.jsonl bout1.jsonl
"$IMSC" request --socket "$SOCK" --shutdown 2> /dev/null
wait "$DAEMON_PID" || true
DAEMON_PID=""
test "$(wc -c < bounded.cache)" -le "$CAP"

# What a SIGKILL mid-append leaves behind: a final frame cut short (it
# claims 100 payload bytes and holds 10).
printf '\144\000\000\000\000\000\000\000\004\000\000\000torn{}' >> bounded.cache

"$IMSC" serve --socket "$SOCK" --jobs 1 --cache bounded.cache \
  --cache-max-bytes "$CAP" --cache-policy lru 2> serve-bounded2.stderr &
DAEMON_PID=$!

# Identical hit behaviour across the compacted-log restart: the
# resident entry (the cold run's last insert) hits warm, byte-for-byte.
# It is probed alone, before anything recomputes — a full-corpus
# request could legitimately evict the lone resident (the cap holds
# little more than one record) before its own probe reaches it.
"$IMSC" request ccorpus/lfk07.loop --socket "$SOCK" --report bout7.jsonl \
  2> breq7.stderr
cmp batch7.jsonl bout7.jsonl
grep -q "1 of 1 loop(s) served from cache" breq7.stderr
grep -q "torn tail truncated" serve-bounded2.stderr

"$IMSC" request ccorpus --socket "$SOCK" --report bout2.jsonl 2> /dev/null
cmp batch.jsonl bout2.jsonl

"$IMSC" request --socket "$SOCK" --shutdown 2> /dev/null
wait "$DAEMON_PID" || true
DAEMON_PID=""
test "$(wc -c < bounded.cache)" -le "$CAP"

# Offline tooling on the same file.
"$IMSC" cache stats bounded.cache > cache-stats.json
grep -q '"entries":' cache-stats.json
grep -q '"torn_tail_truncated":false' cache-stats.json
"$IMSC" cache compact bounded.cache 2> compact.stderr
test "$(wc -c < bounded.cache)" -le "$CAP"

# --- 6. crash loop opens the circuit breaker ---------------------------------

printf '{"kind":"imsc-batch-journal","version":1}\n' > foreign.cache
if "$IMSC" serve --socket "$SOCK" --cache foreign.cache \
  --supervise --max-restarts 2 --backoff 0.01 --backoff-cap 0.02 \
  2> breaker.stderr; then
  echo "a crash-looping daemon must open the circuit breaker" >&2
  exit 1
fi
grep -qi "circuit breaker" breaker.stderr
# The JSON text file is refused by its magic, by the kind expected.
grep -q "not a schedule cache" breaker.stderr

echo "chaos.sh: all checks passed"
