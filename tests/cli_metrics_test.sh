#!/bin/sh
# Live telemetry contract: METRICS scrapes from both `lamo serve` and
# `lamo router` must pass lamo_metrics_check (valid Prometheus exposition,
# consistent histograms) and stay within the final --report totals; request
# IDs stamped by the router must round-trip into the backend access logs
# one-to-one; --access-log must never perturb response bytes (cmp over an
# identical --stdin script); and `lamo_bench_client --top` must render the
# per-backend live table. Also covers the STATS uptime_s/start_time fields
# and the bench client's nonzero exit on ERR responses.
set -e
LAMO="$1"
BENCH="$2"
METRICS_CHECK="$3"
REPORT_CHECK="$4"
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
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" --shards 2 > /dev/null

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

# --- Part 1: --access-log must never change a single response byte. ------
# Identical --stdin scripts (including client-supplied #id tokens and a
# malformed line) with and without the access log; stdout must cmp equal.
# Time-varying verbs (STATS/METRICS) are deliberately excluded.
cat > "$WORK/script.txt" << 'EOF'
PREDICT 7 3
#5 PREDICT 7 3
MOTIFS 42
#900719925474099 TERMINFO T0005
HEALTH
PREDICT nope
PREDICT 17 2
EOF
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
  < "$WORK/script.txt" > "$WORK/plain.out" 2> /dev/null
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
  --access-log "$WORK/stdin_access.jsonl" --access-sample 1 --slow-ms 0 \
  < "$WORK/script.txt" > "$WORK/logged.out" 2> /dev/null
cmp "$WORK/plain.out" "$WORK/logged.out" || {
  echo "FAIL: --access-log perturbed response bytes" >&2
  exit 1
}
# Sample 1 logs every request, echoing client-supplied ids verbatim.
test "$(wc -l < "$WORK/stdin_access.jsonl")" -eq 7 || {
  echo "FAIL: expected 7 access-log lines at --access-sample 1" >&2
  cat "$WORK/stdin_access.jsonl" >&2
  exit 1
}
grep -q '"id":5,' "$WORK/stdin_access.jsonl" || {
  echo "FAIL: client-supplied request id not echoed into the access log" >&2
  exit 1
}
grep -q '"status":"err"' "$WORK/stdin_access.jsonl" || {
  echo "FAIL: malformed request missing from the access log" >&2
  exit 1
}

# --- Part 2: serve METRICS under load + report cross-check. --------------
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  --report "$WORK/serve_report.json" \
  --access-log "$WORK/serve_access.jsonl" --access-sample 3 --slow-ms 0 \
  > "$WORK/serve.log" 2>&1 &
SERVER=$!
wait_port "$WORK/serve.log"
SPORT="$PORT"

"$BENCH" --port "$SPORT" --proteins 300 --connections 4 --requests 50 \
  > /dev/null
# STATS carries the uptime/start-time fields backing the window rates.
"$BENCH" --port "$SPORT" --query "STATS" > "$WORK/serve_stats.txt"
grep -q "uptime_s " "$WORK/serve_stats.txt" || {
  echo "FAIL: serve STATS lacks uptime_s" >&2
  exit 1
}
grep -q "start_time " "$WORK/serve_stats.txt" || {
  echo "FAIL: serve STATS lacks start_time" >&2
  exit 1
}
# One live edge mutation before the scrape, so the update.* counter family
# shows up in the exposition and the final report.
EDGE="$(sed -n '3p' "$WORK/ds.graph.txt")"
"$BENCH" --port "$SPORT" --query "DELEDGE $EDGE" > "$WORK/deledge.txt"
grep -q "applied DELEDGE $EDGE" "$WORK/deledge.txt" || {
  echo "FAIL: DELEDGE not acknowledged: $(cat "$WORK/deledge.txt")" >&2
  exit 1
}
# Two scrapes a beat apart so the window ring has an archived slot.
"$BENCH" --port "$SPORT" --query "METRICS" > /dev/null
sleep 1
"$BENCH" --port "$SPORT" --query "METRICS" > "$WORK/serve_metrics.txt"
"$METRICS_CHECK" "$WORK/serve_metrics.txt" || {
  echo "FAIL: serve METRICS failed lamo_metrics_check" >&2
  exit 1
}
grep -q '^lamo_serve_requests_total ' "$WORK/serve_metrics.txt" || {
  echo "FAIL: serve METRICS lacks lamo_serve_requests_total" >&2
  exit 1
}
grep -q 'lamo_serve_request_us_bucket{le="+Inf"}' "$WORK/serve_metrics.txt" || {
  echo "FAIL: serve METRICS lacks the request latency histogram" >&2
  exit 1
}
grep -q 'window="lifetime"' "$WORK/serve_metrics.txt" || {
  echo "FAIL: serve METRICS lacks lifetime window rates" >&2
  exit 1
}
grep -q '^lamo_update_applied_total 1$' "$WORK/serve_metrics.txt" || {
  echo "FAIL: serve METRICS lacks lamo_update_applied_total after DELEDGE" >&2
  grep '^lamo_update' "$WORK/serve_metrics.txt" >&2 || true
  exit 1
}

# Bench client contract: a load run that hits ERR responses must exit
# nonzero and name the first failing request (proteins beyond the snapshot).
rc=0
"$BENCH" --port "$SPORT" --proteins 100000 --connections 2 --requests 20 \
  > /dev/null 2> "$WORK/bench_err.txt" || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: bench client exited 0 despite ERR responses" >&2
  exit 1
}
grep -q "error: connection" "$WORK/bench_err.txt" || {
  echo "FAIL: bench client did not report the first failing request" >&2
  cat "$WORK/bench_err.txt" >&2
  exit 1
}

kill -TERM "$SERVER"
wait "$SERVER" || {
  echo "FAIL: server exited nonzero after SIGTERM" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}
SERVER=""
# Mid-run scrape totals must be <= the final report (counters are monotone),
# and the report itself must pass the serve.* invariants (including
# serve.access_logged <= serve.requests).
"$METRICS_CHECK" "$WORK/serve_metrics.txt" \
  --report "$WORK/serve_report.json" || {
  echo "FAIL: serve METRICS exceeded final --report totals" >&2
  exit 1
}
"$REPORT_CHECK" "$WORK/serve_report.json" serve.requests serve.connections \
  serve.access_logged update.applied hist:serve.request_us > /dev/null
grep -q '"id":' "$WORK/serve_access.jsonl" || {
  echo "FAIL: serve access log is empty" >&2
  exit 1
}

# --- Part 3: router telemetry + request-ID round-trip. -------------------
"$LAMO" router --snapshot "$WORK/model.lamosnap" --backends 2 \
  --mode sharded --port 0 --report "$WORK/router_report.json" \
  --access-log "$WORK/router_access.jsonl" --access-sample 1 --slow-ms 0 \
  --backend-access-log "$WORK/backend_access.jsonl" \
  > "$WORK/router.log" 2> /dev/null &
ROUTER=$!
wait_port "$WORK/router.log"
RPORT="$PORT"

"$BENCH" --port "$RPORT" --proteins 300 --connections 4 --requests 100 \
  > /dev/null 2> "$WORK/bench_router.err" || {
  echo "FAIL: load run over the router saw errors" >&2
  cat "$WORK/bench_router.err" >&2
  exit 1
}
"$BENCH" --port "$RPORT" --query "STATS" > "$WORK/router_stats.txt"
grep -q "uptime_s " "$WORK/router_stats.txt" || {
  echo "FAIL: router STATS lacks uptime_s" >&2
  exit 1
}
grep -q "ids_issued " "$WORK/router_stats.txt" || {
  echo "FAIL: router STATS lacks ids_issued" >&2
  exit 1
}
"$BENCH" --port "$RPORT" --query "METRICS" > /dev/null
sleep 1
"$BENCH" --port "$RPORT" --query "METRICS" > "$WORK/router_metrics.txt"
"$METRICS_CHECK" "$WORK/router_metrics.txt" || {
  echo "FAIL: router METRICS failed lamo_metrics_check" >&2
  exit 1
}
# The router re-exports every backend's series labeled by backend and shard.
grep -q 'backend="0"' "$WORK/router_metrics.txt" || {
  echo "FAIL: router METRICS lacks backend=\"0\" labeled series" >&2
  exit 1
}
grep -q 'backend="1"' "$WORK/router_metrics.txt" || {
  echo "FAIL: router METRICS lacks backend=\"1\" labeled series" >&2
  exit 1
}
grep -q 'shard="0/2"' "$WORK/router_metrics.txt" || {
  echo "FAIL: router METRICS lacks shard=\"0/2\" labeled series" >&2
  exit 1
}
grep -q '^lamo_router_ids_issued_total ' "$WORK/router_metrics.txt" || {
  echo "FAIL: router METRICS lacks lamo_router_ids_issued_total" >&2
  exit 1
}

# lamo top: one poll must show the verbatim per-backend STATS lines plus the
# windowed metric table.
"$BENCH" --port "$RPORT" --top --watch 1 > "$WORK/top.txt"
grep -q "lamo top: 127.0.0.1:$RPORT" "$WORK/top.txt" || {
  echo "FAIL: --top did not print its banner" >&2
  cat "$WORK/top.txt" >&2
  exit 1
}
grep -q "backend 0 " "$WORK/top.txt" || {
  echo "FAIL: --top output lacks the per-backend STATS lines" >&2
  exit 1
}
# Table rows: re-exported series keyed by their backend= label, the
# router's own series by "-".
grep -q "^lamo_[a-z_]*_per_sec  *0  " "$WORK/top.txt" &&
  grep -q "^lamo_router_[a-z_]*_per_sec  *-  " "$WORK/top.txt" || {
  echo "FAIL: --top table lacks backend-labeled or router rows" >&2
  cat "$WORK/top.txt" >&2
  exit 1
}

kill -TERM "$ROUTER"
wait "$ROUTER" || {
  echo "FAIL: router exited nonzero after SIGTERM" >&2
  cat "$WORK/router.log" >&2
  exit 1
}
ROUTER=""

# Every nonzero id the router logged must appear exactly once across the
# backend access logs, and vice versa (admin verbs carry id 0; router parse
# errors never reach a backend, but this run sends only well-formed queries).
grep -o '"id":[0-9]*' "$WORK/router_access.jsonl" | cut -d: -f2 \
  | grep -v '^0$' | sort -n > "$WORK/router_ids.txt"
cat "$WORK/backend_access.jsonl.0" "$WORK/backend_access.jsonl.1" \
  | grep -o '"id":[0-9]*' | cut -d: -f2 | grep -v '^0$' | sort -n \
  > "$WORK/backend_ids.txt"
test -s "$WORK/router_ids.txt" || {
  echo "FAIL: router access log has no stamped request ids" >&2
  exit 1
}
cmp "$WORK/router_ids.txt" "$WORK/backend_ids.txt" || {
  echo "FAIL: router and backend access-log request ids do not match" >&2
  diff "$WORK/router_ids.txt" "$WORK/backend_ids.txt" | head >&2
  exit 1
}
# Backend log lines carry the backend_us span the router measured around.
grep -q '"backend":' "$WORK/router_access.jsonl" || {
  echo "FAIL: router access log lacks backend attribution" >&2
  exit 1
}

# Router report: ids_issued == backend_requests + errors is checked inside
# lamo_report_check whenever router.ids_issued is present.
"$METRICS_CHECK" "$WORK/router_metrics.txt" \
  --report "$WORK/router_report.json" || {
  echo "FAIL: router METRICS exceeded final --report totals" >&2
  exit 1
}
"$REPORT_CHECK" "$WORK/router_report.json" router.requests \
  router.ids_issued router.backend_requests hist:router.request_us > /dev/null

echo "metrics OK: exposition validated on serve+router, ids round-trip" \
  "$(wc -l < "$WORK/router_ids.txt" | tr -d ' ') requests, access log" \
  "byte-neutral, top table rendered"
