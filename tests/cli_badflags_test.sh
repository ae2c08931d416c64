#!/bin/sh
# CLI strictness contract: every command rejects unknown flags, missing flag
# values, malformed numeric values, stray positional arguments and unknown
# commands with the usage text on stderr and exit code 2 — never by silently
# ignoring the mistake.
set -e
LAMO="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# expect_usage_error <description> <arg...>: the invocation must exit 2 and
# print both an error: line and the usage text.
expect_usage_error() {
  desc="$1"
  shift
  rc=0
  "$LAMO" "$@" > "$WORK/out.txt" 2> "$WORK/err.txt" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $rc" >&2
    cat "$WORK/err.txt" >&2
    exit 1
  fi
  grep -q '^error:' "$WORK/err.txt" || {
    echo "FAIL: $desc: no error: line on stderr" >&2
    exit 1
  }
  grep -q '^usage: lamo' "$WORK/err.txt" || {
    echo "FAIL: $desc: no usage text on stderr" >&2
    exit 1
  }
}

# Unknown flags, on every command.
expect_usage_error "generate unknown flag" generate --bogus 1
expect_usage_error "stats unknown flag" stats --graph x --verbose
expect_usage_error "mine unknown flag" mine --graph x --frobnicate 3
expect_usage_error "label unknown flag" label --graph x --nope yes
expect_usage_error "predict unknown flag" predict --graph x --protien 1
expect_usage_error "pack unknown flag" pack --graph x --output y
expect_usage_error "serve unknown flag" serve --snapshot x --daemonize

# Missing flag values (flag at end of line or followed by another flag).
expect_usage_error "missing value at end" predict --protein
expect_usage_error "missing value before flag" mine --graph --min-size 3
expect_usage_error "serve missing value" serve --snapshot

# Malformed numeric values.
expect_usage_error "non-integer size" mine --min-size abc
expect_usage_error "negative size" generate --proteins -5
expect_usage_error "non-numeric double" mine --uniqueness high
expect_usage_error "trailing junk" label --sigma 10x

# Flags the chosen route would ignore.
expect_usage_error "beam with esu" mine --graph x --algo esu --beam 10
expect_usage_error "unknown algo" mine --graph x --algo foo

# Stray positional arguments and unknown commands.
expect_usage_error "stray positional" stats extra-arg
expect_usage_error "unknown command" frobnicate

# No command at all: usage + exit 2 (no error: prefix required here).
rc=0
"$LAMO" > /dev/null 2> "$WORK/err.txt" || rc=$?
test "$rc" -eq 2 || {
  echo "FAIL: bare lamo: expected exit 2, got $rc" >&2
  exit 1
}
grep -q '^usage: lamo' "$WORK/err.txt"

# Sanity: a correct invocation still succeeds after all that strictness.
"$LAMO" generate --proteins 120 --copies 10 --seed 3 --out "$WORK/ds" \
  > /dev/null
"$LAMO" stats --graph "$WORK/ds.graph.txt" > /dev/null

echo "bad-flags OK: strict rejection on every command, exit code 2"
