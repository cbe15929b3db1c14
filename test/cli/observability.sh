#!/bin/sh
# Run-level observability end to end: --profile dumps parse and render,
# their deterministic parts (counter totals/maxima, II series) are
# byte-identical across worker counts, --status-file leaves a complete
# final snapshot and an unwritable one leaves the run alone, and
# `perf report` tabulates the BENCH trajectory.
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
BENCH_SNAPSHOT=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf observability.d && mkdir observability.d && cd observability.d

# A single schedule run profiles itself and `perf show` renders it.
"$IMSC" schedule lfk07 --profile prof-sched.json > /dev/null
grep -q '"jobs":1' prof-sched.json
"$IMSC" perf show prof-sched.json > show-sched.txt
grep -q 'mindist' show-sched.txt
grep -q 'job.seconds' show-sched.txt

mkdir -p obs-corpus
for loop in lfk01 lfk07 lfk14a lfk21; do
  "$IMSC" export "$loop" > "obs-corpus/$loop.loop"
done

"$IMSC" batch obs-corpus --jobs 1 --report obs-j1.jsonl \
  --profile obs-prof-j1.json --status-file obs-status.json 2> /dev/null
"$IMSC" batch obs-corpus --jobs 4 --report obs-j4.jsonl \
  --profile obs-prof-j4.json 2> /dev/null
cmp obs-j1.jsonl obs-j4.jsonl

# The wall-clock fields legitimately differ between worker counts; the
# counter totals/ceilings and the achieved-II series may not.
"$IMSC" perf show obs-prof-j1.json > show-j1.txt
"$IMSC" perf show obs-prof-j4.json > show-j4.txt
sed -n '/^counters /,/^$/p' show-j1.txt > counters-j1.txt
sed -n '/^counters /,/^$/p' show-j4.txt > counters-j4.txt
cmp counters-j1.txt counters-j4.txt
sed -n 's/.*\({"name":"ii","count":[^}]*}\).*/\1/p' obs-prof-j1.json > ii-j1.txt
sed -n 's/.*\({"name":"ii","count":[^}]*}\).*/\1/p' obs-prof-j4.json > ii-j4.txt
test -s ii-j1.txt
cmp ii-j1.txt ii-j4.txt

# The batch job hands the profile its II apart from the report line, so
# the series must count and sum the report's "ii" fields.
report_ii=$(sed -n 's/.*"ii":\([0-9]*\).*/\1/p' obs-j1.jsonl |
  awk '{ n++; s += $1 } END { printf "\"count\":%d,\"sum\":%d", n, s }')
grep -q "\"name\":\"ii\",$report_ii," ii-j1.txt

# The final status snapshot is complete: every job accounted for and
# the run marked finished.
grep -q '"running":false' obs-status.json
grep -q '"total":4' obs-status.json
grep -q '"done":4' obs-status.json

# A status file that cannot be written is warned about once and leaves
# the run alone: report, journal and exit code equal those of the same
# run without --status-file.
"$IMSC" batch obs-corpus --jobs 1 --report plain.jsonl \
  --journal plain.journal 2> /dev/null
code=0
"$IMSC" batch obs-corpus --jobs 1 --report nostatus.jsonl \
  --journal nostatus.journal --status-file missing-dir/s.json \
  2> nostatus.err || code=$?
test "$code" -eq 0
cmp plain.jsonl nostatus.jsonl
cmp plain.journal nostatus.journal
test "$(grep -c 'missing-dir/s.json' nostatus.err)" -eq 1

# The trajectory table names each snapshot it was given.
"$IMSC" perf report "$BENCH_SNAPSHOT" > report.txt
grep -q 'BENCH_4.json' report.txt
grep -q 'mean II' report.txt

# Unreadable input is a clean failure, not a traceback.
if "$IMSC" perf show missing-profile.json > /dev/null 2>&1; then
  echo "perf show must fail on a missing file" >&2
  exit 1
fi
