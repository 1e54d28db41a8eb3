#!/bin/sh
# Numeric flags parse whole: a malformed or out-of-range value makes
# mrlr_cli exit 2 with "bad value for --FLAG: 'VALUE'" before any work.
# A flag the CLI does not know exits 2 with "unknown flag FLAG", and a
# --backend it does not know exits 2 with "unknown backend NAME".
#
#   sh tests/cli_strict_flags.sh path/to/mrlr_cli
cli="$1"
status=0

expect_refused() {  # MESSAGE ARGS...: exit 2 with MESSAGE on stderr
  message="$1"
  shift
  rc=0
  err=$("$cli" "$@" 2>&1 >/dev/null) || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: mrlr_cli $* exited $rc, not 2"
    status=1
  fi
  case "$err" in
    *"$message"*) ;;
    *)
      echo "FAIL: mrlr_cli $* did not say \"$message\": $err"
      status=1
      ;;
  esac
}

expect_refused "bad value for --n: '300x'" mis --n 300x
expect_refused "bad value for --c: '0.3abc'" mis --c 0.3abc
expect_refused "bad value for --seed: '-1'" mis --seed -1
expect_refused "bad value for --b: '4294967298'" b-matching --b 4294967298
expect_refused "bad value for --mu: 'nan'" matching --mu nan
expect_refused "bad value for --threads: '2x'" bench --threads 2x
expect_refused "bad value for --m: '1e3'" gen gnm --n 100 --m 1e3 --out /dev/null
expect_refused "bad value for --max-running: '+-1'" \
  serve --listen 0 --max-running +-1
expect_refused "unknown flag --trace" mis --trace
expect_refused "unknown backend bogus" mis --backend bogus
expect_refused "unknown backend bogus" bench --backend bogus --list
exit "$status"
