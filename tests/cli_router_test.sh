#!/bin/sh
# End-to-end cluster routing contract: pack a snapshot (plus 2- and 4-shard
# splits), then for every placement mode x backend count prove the router's
# PREDICT / MOTIFS / TERMINFO answers are byte-identical to a single-process
# `lamo serve` and to offline `lamo predict`. Then the operational drills:
# a rolling RELOAD under concurrent bench load must complete with zero
# client-visible errors, SIGHUP must trigger the same swap, aggregated STATS
# must show every backend on the new snapshot (matching checksums), and the
# router's --report must pass the router.* invariants in lamo_report_check.
set -e
LAMO="$1"
BENCH="$2"
REPORT_CHECK="$3"
WORK="$(mktemp -d)"
SERVER=""
ROUTER=""
cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2> /dev/null
  [ -n "$ROUTER" ] && kill "$ROUTER" 2> /dev/null
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
# Two pack runs leave shard files for both backend counts next to the full
# snapshot: model.lamosnap.shard<i>of2 and .shard<i>of4.
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" --shards 2 > /dev/null
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" --shards 4 > /dev/null
for f in 0of2 1of2 0of4 1of4 2of4 3of4; do
  test -s "$WORK/model.lamosnap.shard$f" || {
    echo "FAIL: pack --shards did not write shard $f" >&2
    exit 1
  }
done

# A sharded router without its shard files must fail fast with a pointer to
# pack --shards, before spawning anything.
rc=0
"$LAMO" router --snapshot "$WORK/model.lamosnap" --backends 3 \
  --mode sharded --port 0 > /dev/null 2> "$WORK/missing_shards.err" || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: router started without shard files for --backends 3" >&2
  exit 1
}
grep -q "pack" "$WORK/missing_shards.err" || {
  echo "FAIL: missing-shard error does not mention pack --shards" >&2
  exit 1
}

wait_port() {
  PORT=""
  for _ in $(seq 1 200); do
    # The log may not exist yet (the shell opens it in the forked
    # child): read that as "no banner yet" and keep polling.
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1" 2> /dev/null)" || true
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "FAIL: no listening banner in $1" >&2
  exit 1
}

# The query sample: PREDICTs and MOTIFS spanning all shard residues mod 2
# and mod 4, plus TERMINFO and a malformed request (ERR must pass through).
QUERIES="$WORK/queries.txt"
: > "$QUERIES"
for p in 0 1 2 3 4 5 6 7 17 42 133 299; do
  echo "PREDICT $p 3" >> "$QUERIES"
  echo "MOTIFS $p" >> "$QUERIES"
done
echo "PREDICT 10" >> "$QUERIES"
echo "TERMINFO T0005" >> "$QUERIES"
echo "TERMINFO T0013" >> "$QUERIES"

# Collects the answer of every sample query from the server on port $1 into
# file $2 (payload lines, with a marker per query so ERR/OK boundaries
# align).
collect() {
  : > "$2"
  while IFS= read -r query; do
    echo "== $query" >> "$2"
    "$BENCH" --port "$1" --query "$query" >> "$2" 2>> "$2" || true
  done < "$QUERIES"
}

# Reference 1: single-process serve over the full snapshot.
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  > "$WORK/serve.log" 2>&1 &
SERVER=$!
wait_port "$WORK/serve.log"
SERVE_PORT="$PORT"
collect "$SERVE_PORT" "$WORK/answers_serve.txt"

# Reference 2: offline predict must agree with the served PREDICT payloads
# (transitively proves the router answers match offline predictions too).
"$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --protein 42 --top-k 3 > "$WORK/offline_42.txt"
"$BENCH" --port "$SERVE_PORT" --query "PREDICT 42 3" > "$WORK/served_42.txt"
cmp "$WORK/offline_42.txt" "$WORK/served_42.txt" || {
  echo "FAIL: served PREDICT differs from offline lamo predict" >&2
  exit 1
}

# Router matrix: every placement mode x backend count must reproduce the
# single-process answers byte for byte.
for MODE in sharded replicated; do
  for N in 2 4; do
    rm -f "$WORK/router.log"
    "$LAMO" router --snapshot "$WORK/model.lamosnap" --backends "$N" \
      --mode "$MODE" --port 0 > "$WORK/router.log" 2> /dev/null &
    ROUTER=$!
    wait_port "$WORK/router.log"
    collect "$PORT" "$WORK/answers_router.txt"
    cmp "$WORK/answers_serve.txt" "$WORK/answers_router.txt" || {
      echo "FAIL: $MODE router with $N backends differs from" \
        "single-process serve" >&2
      diff "$WORK/answers_serve.txt" "$WORK/answers_router.txt" | head >&2
      exit 1
    }
    # Cluster HEALTH reports every backend up in the requested mode.
    "$BENCH" --port "$PORT" --query "HEALTH" > "$WORK/health.txt"
    grep -q "ready backends=$N/$N mode=$MODE" "$WORK/health.txt" || {
      echo "FAIL: unexpected cluster HEALTH: $(cat "$WORK/health.txt")" >&2
      exit 1
    }
    kill "$ROUTER"
    wait "$ROUTER" 2> /dev/null || true
    ROUTER=""
    echo "router $MODE x$N: byte-identical to single serve"
  done
done

# Operational drill on a sharded 2-backend cluster, with --report so the
# router.* invariants can be checked at the end.
rm -f "$WORK/router.log"
"$LAMO" router --snapshot "$WORK/model.lamosnap" --backends 2 \
  --mode sharded --port 0 --report "$WORK/router_report.json" \
  > "$WORK/router.log" 2> /dev/null &
ROUTER=$!
wait_port "$WORK/router.log"
RPORT="$PORT"

# Second model for the rolling reload: identical content, new path — the
# swap is observable via snapshot paths while answers stay byte-stable.
cp "$WORK/model.lamosnap" "$WORK/model_v2.lamosnap"
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model_v2.lamosnap" --shards 2 > /dev/null

# RELOAD under load: a load run hammers the cluster while the swap rolls
# through both backends; it must finish with ZERO errors and zero transport
# failures (exit 0), and every request answered.
"$BENCH" --port "$RPORT" --proteins 300 --connections 4 --requests 250 \
  > "$WORK/bench_reload.out" 2>&1 &
BENCH_PID=$!
sleep 0.3
"$BENCH" --port "$RPORT" --query "RELOAD $WORK/model_v2.lamosnap" \
  > "$WORK/reload_answer.txt"
grep -q "reloaded backends=2" "$WORK/reload_answer.txt" || {
  echo "FAIL: RELOAD did not confirm: $(cat "$WORK/reload_answer.txt")" >&2
  exit 1
}
wait "$BENCH_PID" || {
  echo "FAIL: load run over rolling reload saw errors:" >&2
  cat "$WORK/bench_reload.out" >&2
  exit 1
}
grep -q "4 connections x 250 requests: 1000 OK, 0 ERR" \
  "$WORK/bench_reload.out" || {
  echo "FAIL: load run over rolling reload did not answer every request" >&2
  cat "$WORK/bench_reload.out" >&2
  exit 1
}

# After the swap every backend must serve the v2 shard files, verified
# through the aggregated STATS (paths + per-backend checksums present).
"$BENCH" --port "$RPORT" --query "STATS" > "$WORK/stats_after.txt"
grep -q "reloads 1" "$WORK/stats_after.txt" || {
  echo "FAIL: STATS does not show the completed reload" >&2
  exit 1
}
grep -q "backend 0 up .*model_v2.lamosnap.shard0of2" "$WORK/stats_after.txt" || {
  echo "FAIL: backend 0 not on the v2 snapshot after RELOAD" >&2
  cat "$WORK/stats_after.txt" >&2
  exit 1
}
grep -q "backend 1 up .*model_v2.lamosnap.shard1of2" "$WORK/stats_after.txt" || {
  echo "FAIL: backend 1 not on the v2 snapshot after RELOAD" >&2
  exit 1
}
grep -c "checksum=" "$WORK/stats_after.txt" | grep -q "^2$" || {
  echo "FAIL: STATS missing per-backend snapshot checksums" >&2
  exit 1
}

# Answers after the rolling swap are still byte-identical to the reference.
collect "$RPORT" "$WORK/answers_after_reload.txt"
cmp "$WORK/answers_serve.txt" "$WORK/answers_after_reload.txt" || {
  echo "FAIL: answers changed after rolling reload of identical model" >&2
  exit 1
}

# SIGHUP triggers the same rolling swap (onto the current base path).
kill -HUP "$ROUTER"
for _ in $(seq 1 100); do
  "$BENCH" --port "$RPORT" --query "STATS" > "$WORK/stats_hup.txt" 2> /dev/null || true
  grep -q "reloads 2" "$WORK/stats_hup.txt" && break
  sleep 0.2
done
grep -q "reloads 2" "$WORK/stats_hup.txt" || {
  echo "FAIL: SIGHUP did not trigger a rolling reload" >&2
  exit 1
}

# A RELOAD pointing at garbage must be rejected without disturbing service.
rc=0
"$BENCH" --port "$RPORT" --query "RELOAD $WORK/nonexistent.lamosnap" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: RELOAD of a missing snapshot was accepted" >&2
  exit 1
}
"$BENCH" --port "$RPORT" --query "PREDICT 42 3" > "$WORK/after_bad_reload.txt"
cmp "$WORK/offline_42.txt" "$WORK/after_bad_reload.txt" || {
  echo "FAIL: service disturbed after rejected RELOAD" >&2
  exit 1
}

# Graceful shutdown: SIGTERM -> drain banner -> exit 0 -> valid report with
# the router.* invariants (proxied == backend_requests, retries <= requests).
kill "$ROUTER"
wait "$ROUTER" || {
  echo "FAIL: router did not exit cleanly on SIGTERM" >&2
  exit 1
}
ROUTER=""
grep -q "drained" "$WORK/router.log" || {
  echo "FAIL: router log lacks the drain banner" >&2
  exit 1
}
"$REPORT_CHECK" "$WORK/router_report.json" router.requests \
  router.proxied router.backend_requests > /dev/null || {
  echo "FAIL: router report failed validation" >&2
  exit 1
}

kill "$SERVER"
wait "$SERVER" 2> /dev/null || true
SERVER=""

echo "router cluster OK: sharded+replicated x 2+4 backends byte-identical," \
  "rolling reload under load error-free, SIGHUP swap, report validated"
