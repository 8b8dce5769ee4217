#!/bin/sh
# Build the benchmark and the vliwsim binary it drives from this
# checkout's sources, then run it. Build output stays in .bench_build.
#
#   sh perfbench/run.sh --workload exp-all|observed|serve|dist \
#     --seed N --seconds S --trace 0|1
set -u
build=.bench_build
if ! dune build --root . --build-dir "$build" --cache=disabled \
  ./perfbench/perfbench.exe ./bin/vliwsim.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
exec "$build/default/perfbench/perfbench.exe" "$@"
