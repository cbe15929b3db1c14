#!/bin/sh
# Parallel-closure determinism: the figure-6 sweep (and every other
# deterministic table the bench prints) must be byte-identical between
# --jobs 1 and --jobs 4 with the blocked parallel MinDist closure
# enabled and its threshold forced low enough that every Livermore
# loop takes the tiled path.  The blocked kernel must change wall
# clock only, never a distance, a schedule, or a printed byte.
set -eu

BENCH=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# The runtest rules share one build directory: work in a private one so
# no two scripts write the same artifact.
rm -rf closure_determinism.d && mkdir closure_determinism.d && cd closure_determinism.d

"$BENCH" --quick --jobs 1 --closure-jobs 2 --closure-threshold 8 \
  > closure-j1.out 2> closure-j1.log
"$BENCH" --quick --jobs 4 --closure-jobs 2 --closure-threshold 8 \
  > closure-j4.out 2> closure-j4.log

cmp closure-j1.out closure-j4.out

# And against the serial closure: the parallel path is opt-in and
# value-identical, so turning it off must not move a byte either.
"$BENCH" --quick --jobs 4 > closure-serial.out 2> closure-serial.log
cmp closure-serial.out closure-j4.out
