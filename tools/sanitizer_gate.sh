#!/bin/sh
# Sanitizer ctest gate: the label set DESIGN.md §13 promises stays clean
# under TSan and under ASan+UBSan, one build tree per sanitizer.
#
# Usage: tools/sanitizer_gate.sh [jobs]
set -eu
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
LABELS='concurrency|serve|chaos|pipeline|sched|faults'

run_leg() {
  tree="$1"
  shift
  cmake -B "$tree" -S . "$@" >/dev/null
  cmake --build "$tree" -j "$JOBS"
  (cd "$tree" && ctest -L "$LABELS" --output-on-failure -j "$JOBS")
}

run_leg build-tsan -DMNEMO_TSAN=ON
run_leg build-asan -DMNEMO_ASAN=ON -DMNEMO_UBSAN=ON
echo "sanitizer gate: all legs green"
