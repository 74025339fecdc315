#!/usr/bin/env bash
# Unified static-analysis gate. Runs, in order:
#
#   1. oblivious-lint  — tools/lint/oblivious_lint.py: secret-taint analysis
#                        of every TU in src/ (no branch, subscript, loop
#                        bound, or allocation size may depend on secret
#                        shares without passing a declassification point)
#                        and the manifest's pattern rules (entropy audit)
#   2. lint-selftest   — oblivious_lint.py --selftest over the checked-in
#                        must-flag / must-pass fixtures, so a regression in
#                        the linter itself cannot silently green the gate
#   3. clang-tidy      — optional (--clang-tidy), skipped with a notice when
#                        the binary is absent so CI stays the only hard user
#
# Exit code is the OR of all stages; each stage prefixes its own output
# (oblivious-lint: / clang-tidy:), so the combined log reads as one report.
set -u

cd "$(dirname "$0")/../.."

WITH_TIDY=0
ENGINE=auto
for arg in "$@"; do
  case "$arg" in
    --clang-tidy) WITH_TIDY=1 ;;
    --engine=*) ENGINE="${arg#--engine=}" ;;
    -h|--help)
      echo "usage: $0 [--clang-tidy] [--engine=auto|tokenizer|libclang]"
      exit 0
      ;;
    *)
      echo "run-lints: unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

fail=0

echo "run-lints: [1/3] oblivious leakage lint and pattern rules"
python3 tools/lint/oblivious_lint.py \
  --src src \
  --manifest tools/lint/secret_api.toml \
  --compile-commands build/compile_commands.json \
  --engine "$ENGINE" || fail=1

echo "run-lints: [2/3] lint self-test fixtures"
python3 tools/lint/oblivious_lint.py \
  --selftest tests/lint_fixtures \
  --manifest tools/lint/secret_api.toml \
  --engine "$ENGINE" || fail=1

if [ "$WITH_TIDY" -eq 1 ]; then
  echo "run-lints: [3/3] clang-tidy"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy: binary not found; skipping (install clang-tidy or run the CI lint job)"
  elif [ ! -f build/compile_commands.json ]; then
    echo "clang-tidy: build/compile_commands.json missing; configure with cmake first"
    fail=1
  else
    # Sources only; headers are pulled in via HeaderFilterRegex in .clang-tidy.
    mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
    clang-tidy -p build --quiet --warnings-as-errors='*' \
      "${TIDY_SOURCES[@]}" || fail=1
  fi
else
  echo "run-lints: [3/3] clang-tidy skipped (pass --clang-tidy to enable)"
fi

if [ "$fail" -ne 0 ]; then
  echo "run-lints: FAIL"
  exit 1
fi
echo "run-lints: OK"
