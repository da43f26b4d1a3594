#!/usr/bin/env bash
# Builds the flow benchmark from source in this checkout, then runs it with
# the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload tables23-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/flowbench.exe 1>&2
exec ./_build/default/perfbench/flowbench.exe "$@"
