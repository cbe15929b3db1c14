#!/bin/sh
# Parallel batch determinism at corpus scale: the full Livermore suite
# plus 100 synthetic loops, scheduled at --jobs 1 and --jobs 4, must
# produce byte-identical reports AND byte-identical merged counter
# summaries on stderr.  This is the determinism contract the hot-path
# rewrite must not disturb: per-loop counters are sharded per worker and
# merged in input order, so any scheduling or accounting divergence
# between worker counts shows up here.
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf batch_determinism.d && mkdir batch_determinism.d && cd batch_determinism.d

mkdir -p corpus
for loop in lfk01 lfk02 lfk03 lfk04 lfk05 lfk06 lfk07 lfk08 lfk09 lfk10 \
            lfk11 lfk12 lfk13 lfk14a lfk14b lfk15 lfk17 lfk18a lfk18b \
            lfk18c lfk19a lfk19b lfk20 lfk21 lfk22 lfk23 lfk24; do
  "$IMSC" export "$loop" > "corpus/$loop.loop"
done
i=0
while [ $i -lt 100 ]; do
  "$IMSC" export "syn:$i" > "corpus/syn-$(printf %03d $i).loop"
  i=$((i + 1))
done

"$IMSC" batch corpus --jobs 1 --report det-j1.jsonl 2> det-j1.stderr
"$IMSC" batch corpus --jobs 4 --report det-j4.jsonl 2> det-j4.stderr

cmp det-j1.jsonl det-j4.jsonl

# The summary line names the worker count, which legitimately differs;
# the merged counter totals may not.
grep '^merged counters' det-j1.stderr > det-j1.counters
grep '^merged counters' det-j4.stderr > det-j4.counters
cmp det-j1.counters det-j4.counters

# Memory: a worker streams its corpus through the job engine, keeping
# neither the records nor the rendered report lines of finished loops,
# so the peak major heap barely grows with the corpus (about 1.4 words
# per loop measured; about 744 when every record and line lived until
# the end of the run).  The slope between a 2,000- and a 20,000-loop
# corpus cancels the fixed start-up heap; at --jobs 1 both counts are
# deterministic.
heap_words() {
  "$IMSC" corpus gen --seed 1994 --count "$1" --out "mem-$1.ilb" 2> /dev/null
  OCAMLRUNPARAM=v=0x400 "$IMSC" batch --corpus "mem-$1.ilb" --jobs 1 \
    --report "mem-$1.jsonl" 2> "mem-$1.stderr"
  sed -n 's/^top_heap_words: *//p' "mem-$1.stderr"
}
small=$(heap_words 2000)
large=$(heap_words 20000)
per_loop=$(( (large - small) / 18000 ))
if [ "$per_loop" -ge 50 ]; then
  echo "batch heap grows $per_loop words per loop ($small at 2,000 loops," \
    "$large at 20,000); the ceiling is 50" >&2
  exit 1
fi

# Shards past the corpus size: on a one-loop corpus, shard 1 of 100,000
# reports that loop as a single-shard run does, stopping at the end of
# the corpus instead of skipping on past it, and shard 2 has no loops of
# its own: it exits 0 with an empty report.
"$IMSC" corpus gen --seed 1994 --count 1 --out one.ilb 2> /dev/null
"$IMSC" batch --corpus one.ilb --jobs 1 --report one-all.jsonl 2> /dev/null
"$IMSC" batch --corpus one.ilb --shard 1/100000 --jobs 1 \
  --report one-first.jsonl 2> /dev/null
cmp one-all.jsonl one-first.jsonl
"$IMSC" batch --corpus one.ilb --shard 2/100000 --jobs 1 \
  --report one-empty.jsonl 2> /dev/null
if [ ! -f one-empty.jsonl ] || [ -s one-empty.jsonl ]; then
  echo "a shard with no loops must write an empty report" >&2
  exit 1
fi
