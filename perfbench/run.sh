#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# (see perfbench/README.md).  Build output stays in the checkout's _build.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "perfbench: neither dune nor opam is on PATH" >&2
  exit 2
fi

# The shared dune cache would write outside the checkout.
DUNE_CACHE=disabled "${dune[@]}" build --root . ./perfbench/suite.exe 1>&2
exec ./_build/default/perfbench/suite.exe "$@"
