#!/bin/sh
# Resilient batch runs, end to end:
#   1. a journaled clean run;
#   2. resume from a torn journal (simulated SIGKILL mid-append) must
#      re-run only the missing loops and produce a byte-identical
#      report;
#   3. resume when everything is already journaled must replay without
#      scheduling anything — still byte-identical;
#   4. a journal written under different flags, or a file of another
#      kind, must be refused;
#   5. a hung loop (injected spin) must be preempted by the deadline,
#      retried with escalation, quarantined, and must not block the
#      other loops or the wall clock;
#   6. a flaky loop (injected transient fault) must be retried to
#      success and leave the report identical to the clean run;
#   7. --max-failures must cancel the outstanding loops through the
#      run-level token;
#   8. a real SIGKILL mid-run leaves no file at the --report path, and
#      a resume from its journal writes the clean report.
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf resilience.d && mkdir resilience.d && cd resilience.d

mkdir -p rcorpus
for loop in lfk01 lfk02 lfk03 lfk05 lfk07 lfk09 lfk12 lfk20; do
  "$IMSC" export "$loop" > "rcorpus/$loop.loop"
done

# --- 1. clean journaled run ------------------------------------------------

"$IMSC" batch rcorpus --jobs 1 --journal clean.journal \
  --report clean.jsonl 2> clean.stderr
test "$(wc -l < clean.jsonl)" -eq 8

# --- 2. torn-journal resume ------------------------------------------------

# Keep the first half of the journal's bytes: the cut lands inside a
# record's frame, exactly what a SIGKILL during the append leaves
# behind.
head -c $(( $(wc -c < clean.journal) / 2 )) clean.journal > torn.journal

"$IMSC" batch rcorpus --jobs 2 --resume torn.journal \
  --report resumed.jsonl 2> resumed.stderr
cmp clean.jsonl resumed.jsonl
grep -q "torn" resumed.stderr
grep -q "resuming — 3 of 8" resumed.stderr

# --- 3. resume with nothing left to do -------------------------------------

"$IMSC" batch rcorpus --jobs 4 --resume torn.journal \
  --report resumed2.jsonl 2> resumed2.stderr
cmp clean.jsonl resumed2.jsonl
grep -q "resuming — 8 of 8" resumed2.stderr

# --- 4. manifest mismatch refused -------------------------------------------

cp clean.journal other-flags.journal
if "$IMSC" batch rcorpus --budget-ratio 3.0 --resume other-flags.journal \
     --report mismatch.jsonl 2> mismatch.stderr; then
  echo "resume under different flags must fail" >&2
  exit 1
fi
grep -qi "mismatch" mismatch.stderr

# A file of another kind is refused by name before anything runs.
"$IMSC" corpus gen --out other-kind.ilb --count 2 --seed 1 2> /dev/null
if "$IMSC" batch rcorpus --resume other-kind.ilb \
     --report other-kind.jsonl 2> other-kind.stderr; then
  echo "a corpus given as --resume must be refused" >&2
  exit 1
fi
grep -q "not a batch journal" other-kind.stderr

# --- 5. hung loop: preempted, escalated, quarantined ------------------------

t0=$(date +%s)
if "$IMSC" batch rcorpus --jobs 2 --deadline 0.2 --retries 2 --escalate 2.0 \
     --inject-spin lfk03.loop:30 --quarantine quarantine.txt \
     --status-file spin-status.json --status-interval 0.05 \
     --report spin.jsonl 2> spin.stderr; then
  echo "a quarantined loop must exit 1" >&2
  exit 1
fi
# The casualty exit still publishes a complete final status snapshot.
grep -q '"running":false' spin-status.json
t1=$(date +%s)
# Two attempts at 0.2 s and 0.4 s against a 30 s spin: the deadline,
# not the spin, must bound the wall clock.
test $((t1 - t0)) -lt 20
grep 'lfk03' spin.jsonl | grep -q '"status":"cancelled"'
grep 'lfk03' spin.jsonl | grep -q '"quarantined":true'
# The cancelled loop still ships a checked acyclic fallback schedule.
grep 'lfk03' spin.jsonl | grep -q '"fallback_ii"'
test "$(grep -c '"status":"ok"' spin.jsonl)" -eq 7
grep -q 'lfk03' quarantine.txt
test "$(wc -l < quarantine.txt)" -eq 1

# --- 6. flaky loop: retried to success --------------------------------------

"$IMSC" batch rcorpus --jobs 2 --retries 3 --backoff 0.01 \
  --inject-flaky lfk05.loop:1 --report flaky.jsonl 2> flaky.stderr
grep -q "retried" flaky.stderr
# The retry leaves no trace in the report: identical to the clean run.
cmp clean.jsonl flaky.jsonl

# --- 7. fail-fast via the run-level token -----------------------------------

mkdir -p rcorpus-bad
printf 'x = load a\ny =\n' > rcorpus-bad/aaa-bad.loop
cp rcorpus/*.loop rcorpus-bad/
if "$IMSC" batch rcorpus-bad --jobs 1 --max-failures 0 \
     --status-file failfast-status.json --status-interval 0.05 \
     --report failfast.jsonl 2> failfast.stderr; then
  echo "fail-fast run must exit 1" >&2
  exit 1
fi
grep -q "cancelling outstanding" failfast.stderr
grep -q '"status":"failed"' failfast.jsonl
test "$(grep -c '"status":"cancelled"' failfast.jsonl)" -eq 8
# Fail-fast must not skip the final "running":false heartbeat either.
grep -q '"running":false' failfast-status.json

# --- 8. SIGKILL mid-run: no partial report, resume completes ----------------

# lfk07 (the fifth loop) spins, so the four loops before it are
# journaled, and their report lines written, when the kill lands.  A
# job is journaled before the heartbeat counts it, and an interval
# shorter than any job publishes every completion.
"$IMSC" batch rcorpus --jobs 1 --inject-spin lfk07.loop:60 \
  --status-file killed-status.json --status-interval 0.000001 \
  --journal killed.journal --report killed.jsonl 2> killed.stderr &
pid=$!
i=0
until grep -q '"done":4' killed-status.json 2> /dev/null \
      || [ "$i" -ge 300 ]; do
  sleep 0.1
  i=$((i + 1))
done
kill -9 "$pid"
wait "$pid" 2> /dev/null || true
test ! -e killed.jsonl
"$IMSC" batch rcorpus --jobs 2 --resume killed.journal \
  --report killed.jsonl 2> killed-resumed.stderr
grep -q "resuming — 4 of 8" killed-resumed.stderr
cmp clean.jsonl killed.jsonl
