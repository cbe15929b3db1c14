#!/bin/sh
# Bench determinism and CLI contract.
#
# 1. Every deterministic table the bench prints (the figure-6 sweep
#    included) must match bench_quick.expected byte for byte, at
#    --jobs 1 and at --jobs 4 (domains may only change wall clock), and
#    so must the per-loop metrics JSONL of the two runs.  The bench
#    logs where it wrote the metrics on stderr, so stdout does not
#    depend on the --metrics path.
# 2. An unknown flag, or a flag missing its value, prints usage and
#    exits 2.
# 3. An output error (here an unwritable --metrics) is one "bench: ..."
#    line and exit 1, and the status file still ends "running":false.
set -eu

BENCH=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
EXPECTED=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf bench_determinism.d && mkdir bench_determinism.d && cd bench_determinism.d

"$BENCH" --quick --jobs 1 --metrics m1.jsonl > j1.out 2> j1.log
"$BENCH" --quick --jobs 4 --metrics m4.jsonl > j4.out 2> j4.log
cmp j1.out "$EXPECTED"
cmp j1.out j4.out
cmp m1.jsonl m4.jsonl

expect_exit() {
  want=$1
  shift
  code=0
  "$BENCH" "$@" > exit.out 2> exit.err || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "bench $*: exit $code, expected $want" >&2
    cat exit.err >&2
    exit 1
  fi
}

expect_exit 2 --no-such-flag
grep -q "unknown option '--no-such-flag'" exit.err
grep -q "usage:" exit.err
expect_exit 2 --quick --metrics
grep -q "option '--metrics' needs an argument" exit.err

expect_exit 1 --quick --jobs 1 --status-file status.json \
  --metrics missing-dir/m.jsonl
grep -q "^bench: missing-dir/m.jsonl" exit.err
if grep -q "Fatal error" exit.err; then
  echo "bench: output error escaped as an uncaught exception" >&2
  exit 1
fi
grep -q '"running":false' status.json
