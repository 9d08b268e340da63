#!/usr/bin/env bash
# The table/figure bench binaries reject bad operands the way `fsct` does:
# exit 2 with a message on stderr and nothing run.  Garbage integers used
# to parse as 0 (`--max-gates x` ran nothing and exited 0, `--jobs x` meant
# "all cores") and unknown circuit names were skipped silently.
# Usage: bench_args_test.sh <path-to-table3_pipeline>
set -u

BIN=${1:?usage: bench_args_test.sh <path-to-table3_pipeline>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
FAILURES=0

# expect_fail <stderr-pattern> -- <args...>
expect_fail() {
  local pattern=$1
  shift 2
  local out code
  out=$("$BIN" "$@" 2>"$TMP/err")
  code=$?
  if [[ $code -ne 2 ]]; then
    echo "FAIL: $* -> exit $code, want 2"
    FAILURES=$((FAILURES + 1))
  elif ! grep -q -- "$pattern" "$TMP/err"; then
    echo "FAIL: $* -> stderr missing /$pattern/: $(cat "$TMP/err")"
    FAILURES=$((FAILURES + 1))
  elif [[ -n "$out" ]]; then
    echo "FAIL: $* -> error case wrote to stdout: $out"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $* -> 2, '$(cat "$TMP/err")'"
  fi
}

expect_fail "--max-gates: invalid integer 'x'" -- --max-gates x
expect_fail "--max-gates: invalid integer '15x'" -- s1488 --max-gates 15x
expect_fail "--max-gates: value 0 out of range" -- --max-gates 0
expect_fail "--jobs: invalid integer 'x'" -- s1488 --jobs x
expect_fail "--jobs: value -1 out of range" -- s1488 --jobs -1
expect_fail "--jobs requires a value" -- s1488 --jobs
expect_fail "unknown circuit 's9999'" -- s9999
expect_fail "unknown circuit 's9999'" -- s1488 s9999 --jobs 1

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES case(s) failed"
  exit 1
fi
echo "all bench argument cases passed"
