#!/usr/bin/env bash
# Test-registration gate: `cargo test -- --list` must print every test
# name at most once within each test binary (unit, integration and doc
# tests alike). A name listed twice runs twice and is counted twice, as
# happens when a macro emits `#[test]` beside the caller's own.
#
# Prints the distinct test count; exits 1 if any binary lists a name
# more than once, naming the binary and each repeated test.
set -euo pipefail
cd "$(dirname "$0")/.."

list="$(mktemp)"
trap 'rm -f "${list}"' EXIT
cargo test --workspace -- --list >"${list}" 2>&1 || {
  cat "${list}"
  exit 1
}

# Each binary's listing starts with cargo's "Running ..." or
# "Doc-tests ..." line; test entries end in ": test".
awk '
  /^ *(Running|Doc-tests) / { binary = $0; sub(/^ +/, "", binary); next }
  /: test$/ {
    name = $0
    sub(/: test$/, "", name)
    distinct += !seen[binary, name]++
    if (seen[binary, name] == 2) {
      print "listed twice in " binary ": " name
      dups++
    }
  }
  END {
    print distinct " distinct tests"
    if (dups) { print dups " duplicate test names"; exit 1 }
  }
' "${list}"
