#!/bin/sh
# End-to-end predictor-backend contract: pack one snapshot, then for each
# registered backend (lms, gds, role) prove the served PREDICT answers are
# byte-identical to offline `lamo predict --predictor X`, that STATS names
# the active backend, and that predict --report carries the backend in its
# annotations (validated by lamo_report_check). Finally an A/B drill: a
# replicated router with --predictors lms,gds must show one backend per
# predictor in STATS.
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
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" > /dev/null
test -s "$WORK/model.lamosnap"

# An unknown backend name is a usage error (exit 2), not a crash.
rc=0
"$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --protein 0 --predictor bogus > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2 || {
  echo "FAIL: --predictor bogus exited $rc, want usage exit 2" >&2
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

# Per backend: offline predictions (with --report), served answers over TCP,
# byte-compare each protein, and STATS must echo the active predictor.
for NAME in lms gds role; do
  for protein in 0 7 17 42 123; do
    "$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
      --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
      --protein "$protein" --predictor "$NAME" \
      --report "$WORK/predict_$NAME.json" > "$WORK/offline.$NAME.$protein.txt"
  done
  "$REPORT_CHECK" "$WORK/predict_$NAME.json" predict.votes > /dev/null || {
    echo "FAIL: predict --predictor $NAME report failed validation" >&2
    exit 1
  }
  grep -q "\"predictor\":\"$NAME\"" "$WORK/predict_$NAME.json" || {
    echo "FAIL: predict report for $NAME lacks the predictor annotation" >&2
    exit 1
  }

  rm -f "$WORK/serve.$NAME.log"
  "$LAMO" serve --snapshot "$WORK/model.lamosnap" --predictor "$NAME" \
    --port 0 > "$WORK/serve.$NAME.log" 2>&1 &
  SERVER=$!
  wait_port "$WORK/serve.$NAME.log"
  for protein in 0 7 17 42 123; do
    "$BENCH" --port "$PORT" --query "PREDICT $protein" \
      > "$WORK/online.$NAME.$protein.txt"
    cmp "$WORK/offline.$NAME.$protein.txt" "$WORK/online.$NAME.$protein.txt" || {
      echo "FAIL: served PREDICT $protein ($NAME) differs from offline" >&2
      exit 1
    }
  done
  "$BENCH" --port "$PORT" --query "STATS" > "$WORK/stats.$NAME.txt"
  grep -q "predictor $NAME" "$WORK/stats.$NAME.txt" || {
    echo "FAIL: STATS does not name the active predictor $NAME" >&2
    cat "$WORK/stats.$NAME.txt" >&2
    exit 1
  }
  kill "$SERVER"
  wait "$SERVER" 2> /dev/null || true
  SERVER=""
  echo "backend $NAME: served answers byte-identical to offline predict"
done

# The three backends must not be trivially identical: across the sampled
# proteins at least one (gds or role) answer differs from lms.
if cmp -s "$WORK/offline.lms.42.txt" "$WORK/offline.gds.42.txt" &&
   cmp -s "$WORK/offline.lms.42.txt" "$WORK/offline.role.42.txt" &&
   cmp -s "$WORK/offline.lms.123.txt" "$WORK/offline.gds.123.txt" &&
   cmp -s "$WORK/offline.lms.123.txt" "$WORK/offline.role.123.txt"; then
  echo "FAIL: gds and role answers identical to lms on every sample" >&2
  exit 1
fi

# A/B drill: replicated router, backend 0 on lms and backend 1 on gds.
# Aggregated STATS must show each backend's predictor, and the cluster must
# keep answering PREDICTs.
rm -f "$WORK/router.log"
"$LAMO" router --snapshot "$WORK/model.lamosnap" --backends 2 \
  --mode replicated --predictors lms,gds --port 0 \
  > "$WORK/router.log" 2> /dev/null &
ROUTER=$!
wait_port "$WORK/router.log"
"$BENCH" --port "$PORT" --query "STATS" > "$WORK/stats.ab.txt"
grep -q "backend 0 up .*predictor=lms" "$WORK/stats.ab.txt" || {
  echo "FAIL: A/B STATS does not show backend 0 on lms" >&2
  cat "$WORK/stats.ab.txt" >&2
  exit 1
}
grep -q "backend 1 up .*predictor=gds" "$WORK/stats.ab.txt" || {
  echo "FAIL: A/B STATS does not show backend 1 on gds" >&2
  cat "$WORK/stats.ab.txt" >&2
  exit 1
}
for protein in 3 42 123; do
  "$BENCH" --port "$PORT" --query "PREDICT $protein" \
    > "$WORK/online.ab.$protein.txt"
  test -s "$WORK/online.ab.$protein.txt" || {
    echo "FAIL: A/B cluster returned nothing for PREDICT $protein" >&2
    exit 1
  }
done
kill "$ROUTER"
wait "$ROUTER" 2> /dev/null || true
ROUTER=""

echo "predictor backends OK: lms/gds/role byte-identical offline vs served," \
  "A/B cluster observable via STATS"
