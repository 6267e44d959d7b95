#!/bin/bash
# Builds the end-to-end benchmark from the source tree it is run in,
# then runs it with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload stale_wide --seed 1 --seconds 12 --trace 0
#
# Run it from the root of a staleroute source tree.  Build output goes
# to stderr, so the last line on stdout stays the benchmark's JSON
# result.  The dune cache is off so that nothing is written outside the
# tree.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/e2e.ml ]; then
  echo "run.sh: run from the root of a staleroute source tree" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
