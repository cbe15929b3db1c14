#!/bin/sh
# The option surface of the job front ends, and fleet's flag forwarding:
#   1. the options of batch, fleet, serve, request and corpus gen (each
#      option's names, docv and default, as --help=plain prints them)
#      must equal cli_surface.expected.  The --jobs default of batch and
#      serve is the host's domain count and is masked;
#   2. a fleet run with flags that shape a result (--timeout, --deadline,
#      --retries) must leave shard journals that a plain
#      `imsc batch --shard 1/2 --resume` with the same flags accepts,
#      replaying the shard's report byte for byte;
#   3. the same resume with a different --retries must be refused as a
#      flags mismatch.
# Usage: cli_surface.sh IMSC EXPECTED
set -eu

IMSC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
EXPECTED=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")

rm -rf cli_surface.d && mkdir cli_surface.d && cd cli_surface.d

# --- 1. option surface -------------------------------------------------------

# One option per line.  [host] masks the --jobs default.
options() {
  echo "== $*"
  "$IMSC" "$@" --help=plain | grep -E '^       -' | sed -E 's/^ +//'
}
host() { sed -E 's/(--jobs=N) \(absent=[0-9]+\)/\1 (absent=HOST)/'; }

{
  options batch | host
  options fleet
  options serve | host
  options request
  options corpus gen
} > surface.out
cmp surface.out "$EXPECTED"

# --- 2. fleet workers' journals resume under plain batch --------------------

"$IMSC" corpus gen --out c.ilb --count 40 --seed 7 2> gen.stderr
FLAGS="--timeout 5 --deadline 3 --retries 2"
# shellcheck disable=SC2086
"$IMSC" fleet --corpus c.ilb --workers 2 $FLAGS --dir run \
  --report merged.jsonl 2> fleet.stderr
test "$(wc -l < merged.jsonl)" -eq 40

# shellcheck disable=SC2086
"$IMSC" batch --corpus c.ilb --shard 1/2 $FLAGS \
  --resume run/shard-1.journal --report shard1.jsonl 2> resume.stderr
cmp run/shard-1.report.jsonl shard1.jsonl
grep -q "resuming — 20 of 20" resume.stderr

# --- 3. a diverged flag is refused --------------------------------------------

if "$IMSC" batch --corpus c.ilb --shard 1/2 --timeout 5 --deadline 3 \
  --retries 3 --resume run/shard-1.journal --report refused.jsonl \
  2> refused.stderr; then
  echo "resume with --retries 3 was accepted" >&2
  exit 1
fi
grep -q "flags diverged" refused.stderr

echo "cli surface: ok"
