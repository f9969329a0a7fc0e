#!/bin/sh
# Build the end-to-end benchmark from source and run it from the
# repository root:
#
#   sh bench/e2e/run.sh --workload NAME --seed N --seconds N --trace 0|1
#
# The build's own output goes to stderr; the benchmark's last stdout
# line is its JSON result (see README.md). The dune cache is disabled
# so that nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe bench "$@"
