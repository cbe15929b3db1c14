#!/bin/sh
# Build the benchmark and the imsc binary it drives from source, then
# run it from the repository root; every argument goes to main.exe
# (see perf/README.md).  Build output goes to stderr so that the last
# line of standard output stays the benchmark's JSON result.
set -e
dune build --root . --display quiet perf/main.exe bin/imsc.exe 1>&2
exec ./_build/default/perf/main.exe "$@"
