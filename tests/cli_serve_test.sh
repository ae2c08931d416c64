#!/bin/sh
# End-to-end serving contract: pack a snapshot from pipeline outputs, start
# the TCP daemon, drive it with the bench client over 4 concurrent
# connections, check served PREDICT answers byte-identical to offline
# `lamo predict`, verify corrupt snapshots are rejected, and shut the server
# down cleanly (SIGTERM -> drain -> exit 0 with a valid --report).
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
test -s "$WORK/model.lamosnap"

# Corrupt snapshots are rejected with an error, not a crash: a truncated
# prefix and a bit-flipped copy must both fail to serve.
head -c 100 "$WORK/model.lamosnap" > "$WORK/truncated.lamosnap"
rc=0
"$LAMO" serve --snapshot "$WORK/truncated.lamosnap" --stdin \
  < /dev/null > /dev/null 2>&1 || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: truncated snapshot was accepted" >&2
  exit 1
}
cp "$WORK/model.lamosnap" "$WORK/flipped.lamosnap"
printf 'X' | dd of="$WORK/flipped.lamosnap" bs=1 seek=100 conv=notrunc \
  2> /dev/null
rc=0
"$LAMO" serve --snapshot "$WORK/flipped.lamosnap" --stdin \
  < /dev/null > /dev/null 2>&1 || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: bit-flipped snapshot was accepted" >&2
  exit 1
}

# Start the daemon on an ephemeral port and discover it from the log.
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
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

# Served PREDICT answers must be byte-identical to offline `lamo predict`.
for protein in 0 7 17 42 123; do
  "$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
    --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
    --protein "$protein" > "$WORK/offline.$protein.txt"
  "$BENCH" --port "$PORT" --query "PREDICT $protein" \
    > "$WORK/online.$protein.txt"
  cmp "$WORK/offline.$protein.txt" "$WORK/online.$protein.txt" || {
    echo "FAIL: served PREDICT $protein differs from offline predict" >&2
    exit 1
  }
done

# Concurrency: 4 connections x 50 requests, every one answered OK (the load
# run exits nonzero on any ERR or transport failure).
"$BENCH" --port "$PORT" --connections 4 --requests 50 > /dev/null

# Graceful shutdown: SIGTERM -> drain -> exit 0, report written and valid
# (including the serve.* counter/histogram invariants).
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
test -s "$WORK/serve_report.json"
"$REPORT_CHECK" "$WORK/serve_report.json" serve.requests \
  hist:serve.request_us phase:load phase:init > /dev/null

echo "serve OK: concurrent answers byte-identical to offline predict," \
  "corrupt snapshots rejected, clean shutdown"
