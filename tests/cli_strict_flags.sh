#!/bin/sh
# Numeric flags parse whole: a malformed or out-of-range value makes
# mrlr_cli exit 2 with "bad value for --FLAG: 'VALUE'" before any work.
# A flag the CLI does not know exits 2 with "unknown flag FLAG".
#
#   sh tests/cli_strict_flags.sh path/to/mrlr_cli
cli="$1"
status=0

expect_refused() {  # FLAG VALUE ARGS...
  flag="$1"
  value="$2"
  shift 2
  rc=0
  err=$("$cli" "$@" 2>&1 >/dev/null) || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: mrlr_cli $* exited $rc, not 2"
    status=1
  fi
  case "$err" in
    *"bad value for $flag: '$value'"*) ;;
    *)
      echo "FAIL: mrlr_cli $* did not name $flag: $err"
      status=1
      ;;
  esac
}

expect_unknown() {  # FLAG ARGS...
  flag="$1"
  shift
  rc=0
  err=$("$cli" "$@" 2>&1 >/dev/null) || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: mrlr_cli $* exited $rc, not 2"
    status=1
  fi
  case "$err" in
    *"unknown flag $flag"*) ;;
    *)
      echo "FAIL: mrlr_cli $* did not refuse $flag as unknown: $err"
      status=1
      ;;
  esac
}

expect_refused --n 300x mis --n 300x
expect_refused --c 0.3abc mis --c 0.3abc
expect_refused --seed -1 mis --seed -1
expect_refused --b 4294967298 b-matching --b 4294967298
expect_refused --mu nan matching --mu nan
expect_refused --threads 2x bench --threads 2x
expect_refused --m 1e3 gen gnm --n 100 --m 1e3 --out /dev/null
expect_refused --max-running +-1 serve --listen 0 --max-running +-1
expect_unknown --trace mis --trace
exit "$status"
