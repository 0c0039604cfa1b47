#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build outputs and trace files go under $CARGO_TARGET_DIR (default
# .bench_build); the dune cache is off so nothing is written elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no tmest sources next to perfbench/ — nothing to build" >&2
  exit 3
fi
build=${CARGO_TARGET_DIR:-.bench_build}
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --profile release ./perfbench/main.exe >&2
mkdir -p "$build/perfbench-traces"
exec "$build/default/perfbench/main.exe" --nproc "$(nproc)" \
  --trace-dir "$build/perfbench-traces" "$@"
