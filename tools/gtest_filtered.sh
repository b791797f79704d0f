#!/bin/sh
# Runs one gtest binary under a --gtest_filter and fails unless the run
# passed AND the filter selected at least one test.  gtest releases before
# --gtest_fail_if_no_test_selected exit 0 when a filter matches nothing
# ("[  PASSED  ] 0 tests."), so a renamed suite would otherwise drop out of
# a filtered CI step without turning it red.
#
#   tools/gtest_filtered.sh BINARY FILTER
#
# The binary's output passes through; the environment (SB_THREADS,
# SB_TRACE, sanitizer options) is inherited.
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 BINARY FILTER" >&2
  exit 2
fi
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
"$1" --gtest_filter="$2" > "$log" 2>&1 || status=$?
cat "$log"
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if ! grep -Eq '^\[  PASSED  \] [1-9][0-9]* tests?\.' "$log"; then
  echo "$0: --gtest_filter='$2' selected no test in $1" >&2
  exit 1
fi
