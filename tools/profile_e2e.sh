#!/usr/bin/env bash
# Flat gprof profile of one end-to-end benchmark workload.
#
#   tools/profile_e2e.sh <workload> [seed] [seconds]
#
# Builds bench/e2e (Release, compiled and linked with -pg) into build/prof,
# runs the workload untraced (default seed 2022, 4 seconds), and prints the
# head of the gprof flat profile. The workload's own output lines are kept
# in build/prof/<workload>.txt.
#
# gprof samples only code compiled with -pg. Time spent inside libc
# (malloc, free, memcpy) is dropped, so allocation cost does not show here.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <workload> [seed] [seconds]" >&2
  exit 2
fi
workload=$1
seed=${2:-2022}
seconds=${3:-4}
build=build/prof

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg" >&2
fi
jobs=$(nproc)
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake --build "$build" -j "$jobs" >&2

# gmon.out is written to the working directory of the profiled process.
cd "$build"
rm -f gmon.out
./e2e_bench --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --trace 0 > "$workload.txt"
gprof -b -p ./e2e_bench gmon.out | head -n 30
