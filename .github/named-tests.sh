#!/usr/bin/env bash
# Run tests by name, failing when a name matches no test.
#
#   named-tests.sh CARGO_TEST_ARGS... -- [LIBTEST_FLAGS...] NAME...
#
# runs `cargo test CARGO_TEST_ARGS... -- LIBTEST_FLAGS... NAME...`, but
# first lists each NAME on its own (`-- --list LIBTEST_FLAGS... NAME`)
# and exits 1 if it lists no test. libtest treats a name as a substring
# filter and reports "0 passed" with exit 0 when nothing matches, so a
# renamed test would otherwise drop out of a named step without a sound.
# LIBTEST_FLAGS must take no value (`--ignored`, `--exact`): any word
# not starting with `-` is read as a name.
set -euo pipefail

cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
if [ $# -eq 0 ]; then
  echo "usage: $0 CARGO_TEST_ARGS... -- [LIBTEST_FLAGS...] NAME..." >&2
  exit 2
fi
shift

flags=()
names=()
for arg in "$@"; do
  case "$arg" in
    -*) flags+=("$arg") ;;
    *) names+=("$arg") ;;
  esac
done
if [ ${#names[@]} -eq 0 ]; then
  echo "$0: no test name given" >&2
  exit 2
fi

for name in "${names[@]}"; do
  listed=$(cargo test "${cargo_args[@]}" -- --list "${flags[@]}" "$name")
  if ! grep -q ': test$' <<<"$listed"; then
    echo "no test matches '$name' in: cargo test ${cargo_args[*]}" >&2
    exit 1
  fi
done
cargo test "${cargo_args[@]}" -- "${flags[@]}" "${names[@]}"
