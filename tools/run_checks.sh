#!/usr/bin/env bash
# Single entry point for the static-check toolchain: the CI `analyze` job
# runs exactly this script, so a green local run means a green CI lane.
#
#   tools/run_checks.sh            # analyze + fixture self-tests
#   tools/run_checks.sh --tidy     # additionally clang-tidy (needs a
#                                  # compile_commands.json build dir and
#                                  # clang-tidy on PATH)
#
# Steps:
#   1. ssr_analyze.py  — AST-level determinism/concurrency rules plus the
#                        textual conventions (no-assert, pragma-once), gated
#                        on zero unbaselined findings against the committed
#                        tools/ssr_analyze_baseline.json.
#   2. fixture suites  — the analyzer and bench-gate self-tests
#                        (tests/analyze/), so a broken rule cannot pass
#                        silently.
#   3. clang frontend  — if python clang bindings are importable (CI pins
#                        `pip install libclang==14.0.6`), re-run the
#                        analyzer with --frontend=clang over
#                        compile_commands.json as a cross-check of the
#                        canonical python frontend.  Skipped otherwise.
#   4. clang-tidy      — only with --tidy; optional everywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python3}"
BUILD_DIR="${BUILD_DIR:-build}"
TIDY=0
[[ "${1:-}" == "--tidy" ]] && TIDY=1

echo "==> ssr_analyze (python frontend, baseline gate)"
"$PYTHON" tools/ssr_analyze.py \
    --baseline tools/ssr_analyze_baseline.json \
    src tools bench examples tests

echo "==> toolchain fixture self-tests"
(cd tests && "$PYTHON" -m unittest \
    analyze.test_ssr_analyze analyze.test_check_bench_regression)

if "$PYTHON" -c 'import clang.cindex' 2>/dev/null; then
  echo "==> ssr_analyze (clang frontend cross-check)"
  CC_JSON="$BUILD_DIR/compile_commands.json"
  if [[ -f "$CC_JSON" ]]; then
    "$PYTHON" tools/ssr_analyze.py --frontend=clang \
        --compile-commands "$CC_JSON" \
        --baseline tools/ssr_analyze_baseline.json \
        src tools bench examples
  else
    echo "    (no $CC_JSON; configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
  fi
else
  echo "==> clang frontend cross-check skipped (no python clang bindings)"
fi

if [[ "$TIDY" == 1 ]]; then
  echo "==> clang-tidy build"
  cmake -B "$BUILD_DIR-tidy" -S . -DSSR_CLANG_TIDY=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR-tidy" -j
fi

echo "==> all checks passed"
