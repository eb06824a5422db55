#!/bin/sh
# Build the benchmark from this checkout and run one workload:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# The build output goes to stderr; the last line of stdout is the
# JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not a checkout of the repository" >&2
  exit 2
fi
dune build --root . ./perfbench/umrs_perf.exe 1>&2
exec ./_build/default/perfbench/umrs_perf.exe "$@"
