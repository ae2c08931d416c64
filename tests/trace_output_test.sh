#!/bin/sh
# End-to-end test of --trace: mine and label a small synthetic dataset at
# --threads 4 with span tracing enabled, then assert via lamo_trace_summary
# that the traces are valid Chrome trace-event JSON with real breadth — at
# least 5 distinct span names spread over at least 2 threads for the mine
# stage (the acceptance bar for the tracer), and a non-empty label trace.
# Also checks the drop-oldest path: a tiny --trace-capacity must yield a
# parseable trace that reports dropped events instead of failing.
set -e
LAMO="$1"
SUMMARY="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 300 --copies 20 --seed 9 --out "$WORK/ds" \
  > /dev/null

"$LAMO" mine --graph "$WORK/ds.graph.txt" --algo esu --min-size 3 \
  --max-size 4 --min-freq 15 --networks 4 --uniqueness 0.5 --threads 4 \
  --trace "$WORK/mine.trace.json" --out "$WORK/motifs.txt" > /dev/null
test -s "$WORK/mine.trace.json"
"$SUMMARY" "$WORK/mine.trace.json" > "$WORK/mine.summary.txt"
head -n 1 "$WORK/mine.summary.txt"

# A malformed or unknown flag prints usage and exits 2 instead of being
# ignored; a well-formed --top still works.
for args in "--top abc" "--top" "--top 0" "--top -3" "--frobnicate"; do
  rc=0
  # shellcheck disable=SC2086  # word-split the argument list on purpose
  "$SUMMARY" "$WORK/mine.trace.json" $args > /dev/null 2> "$WORK/bad.err" \
    || rc=$?
  test "$rc" -eq 2 && grep -q "usage:" "$WORK/bad.err" || {
    echo "FAIL: lamo_trace_summary '$args' exited $rc, want usage + exit 2" >&2
    exit 1
  }
done
"$SUMMARY" "$WORK/mine.trace.json" --top 3 > /dev/null

# "trace: <events> events, <names> span names, <threads> threads, <n> dropped"
read -r _ events _ names _ _ threads _ _ _ << EOF
$(head -n 1 "$WORK/mine.summary.txt")
EOF
events="${events%,}"; names="${names%,}"
test "$events" -gt 0 || { echo "FAIL: empty mine trace" >&2; exit 1; }
test "$names" -ge 5 || {
  echo "FAIL: expected >= 5 span names, got $names" >&2; exit 1; }
test "$threads" -ge 2 || {
  echo "FAIL: expected >= 2 traced threads, got $threads" >&2; exit 1; }

"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$WORK/motifs.txt" \
  --sigma 5 --threads 4 --trace "$WORK/label.trace.json" \
  --out "$WORK/labeled.txt" > /dev/null
test -s "$WORK/label.trace.json"
"$SUMMARY" "$WORK/label.trace.json" > "$WORK/label.summary.txt"
head -n 1 "$WORK/label.summary.txt"
read -r _ label_events _ _ _ _ _ _ _ _ << EOF
$(head -n 1 "$WORK/label.summary.txt")
EOF
label_events="${label_events%,}"
test "$label_events" -gt 0 || { echo "FAIL: empty label trace" >&2; exit 1; }

# Overflow: a 16-event ring must still produce a valid trace and account for
# what it shed.
"$LAMO" mine --graph "$WORK/ds.graph.txt" --algo esu --min-size 3 \
  --max-size 4 --min-freq 15 --networks 4 --uniqueness 0.5 --threads 4 \
  --trace "$WORK/tiny.trace.json" --trace-capacity 16 \
  --out "$WORK/motifs2.txt" > /dev/null
"$SUMMARY" "$WORK/tiny.trace.json" > "$WORK/tiny.summary.txt"
head -n 1 "$WORK/tiny.summary.txt"
if grep -q " 0 dropped" "$WORK/tiny.summary.txt"; then
  echo "FAIL: tiny ring reported no drops" >&2
  exit 1
fi

# Tracing must not perturb the pipeline: same motifs with and without it.
cmp "$WORK/motifs.txt" "$WORK/motifs2.txt" || {
  echo "FAIL: output differs across --trace-capacity settings" >&2; exit 1; }
"$LAMO" mine --graph "$WORK/ds.graph.txt" --algo esu --min-size 3 \
  --max-size 4 --min-freq 15 --networks 4 --uniqueness 0.5 --threads 4 \
  --out "$WORK/motifs_plain.txt" > /dev/null
cmp "$WORK/motifs.txt" "$WORK/motifs_plain.txt" || {
  echo "FAIL: --trace changed the mined motifs" >&2; exit 1; }

echo "trace output OK"
