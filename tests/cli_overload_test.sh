#!/bin/sh
# End-to-end overload contract for the serve daemon: start `lamo serve` with
# deliberately tight limits (--request-timeout-ms / --max-conns /
# --max-line-bytes), attack it with the bench client's abuse modes
# (slowloris, oversized line, half-close, connection burst), check that a
# normal query is still answered correctly throughout, then SIGTERM and
# require a clean drain (exit 0) plus serve.* overload counters in the run
# report.
set -e
LAMO="$1"
BENCH="$2"
REPORT_CHECK="$3"
WORK="$(mktemp -d)"
SERVER=""
cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

# Invalid arguments print usage and exit 2 before any connection opens;
# --port above 65535 must not wrap around to some other port.
for args in "--port 70000 --query HEALTH" "--port 65536 --query HEALTH" \
    "--port 0 --query HEALTH" "--port -1 --query HEALTH"; do
  rc=0
  # shellcheck disable=SC2086  # word-split the argument list on purpose
  "$BENCH" $args > /dev/null 2> "$WORK/badargs.err" || rc=$?
  test "$rc" -eq 2 && grep -q "usage:" "$WORK/badargs.err" || {
    echo "FAIL: bench client '$args' exited $rc, want usage + exit 2" >&2
    cat "$WORK/badargs.err" >&2
    exit 1
  }
done

"$LAMO" generate --proteins 300 --copies 30 --seed 5 --out "$WORK/ds" \
  > /dev/null
"$LAMO" mine --graph "$WORK/ds.graph.txt" --algo esu --min-size 3 \
  --max-size 3 --min-freq 15 --networks 4 --uniqueness 0.8 \
  --out "$WORK/motifs.txt" > /dev/null
"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$WORK/motifs.txt" \
  --sigma 6 --out "$WORK/labeled.txt" > /dev/null
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" > /dev/null

# Tight limits so every abuse mode trips its guard quickly: a 500 ms line
# deadline, 2 connection slots, and a 1 KiB request-line cap (the longline
# abuse sends 8 KiB).
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  --request-timeout-ms 500 --max-conns 2 --max-line-bytes 1024 \
  --report "$WORK/serve_report.json" > "$WORK/serve.log" 2>&1 &
SERVER=$!
PORT=""
for _ in $(seq 1 100); do
  # The log may not exist yet (the shell opens it in the forked
  # child): read that as "no banner yet" and keep polling.
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$WORK/serve.log" 2> /dev/null)" || true
  [ -n "$PORT" ] && break
  sleep 0.1
done
test -n "$PORT" || {
  echo "FAIL: server never reported its port" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

# Each abuse mode exits 0 only if the server honored the documented
# contract (see lamo_bench_client --help).
for mode in slowloris longline halfclose; do
  "$BENCH" --port "$PORT" --abuse "$mode" > /dev/null || {
    echo "FAIL: abuse mode '$mode' contract violated" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  }
done
# 6 connections against 2 slots: excess waits in the accept backlog and every
# one is still answered (backpressure, never drops).
"$BENCH" --port "$PORT" --abuse burst --connections 6 > /dev/null || {
  echo "FAIL: burst past --max-conns dropped connections" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

# The daemon must still serve correct answers after all that abuse.
"$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --protein 42 > "$WORK/offline.txt"
"$BENCH" --port "$PORT" --query "PREDICT 42" > "$WORK/online.txt"
cmp "$WORK/offline.txt" "$WORK/online.txt" || {
  echo "FAIL: served answer differs from offline predict after abuse" >&2
  exit 1
}

# Clean drain under SIGTERM, and the report must carry the overload
# counters the abuse provoked.
kill -TERM "$SERVER"
wait "$SERVER" || {
  echo "FAIL: server exited nonzero after SIGTERM" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}
SERVER=""
grep -q "drained" "$WORK/serve.log" || {
  echo "FAIL: no drain message in server log" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}
"$REPORT_CHECK" "$WORK/serve_report.json" serve.requests serve.timeouts \
  serve.overlong_lines > /dev/null

echo "overload OK: slowloris/longline/halfclose/burst all handled per" \
  "contract, normal queries unaffected, clean drain"
