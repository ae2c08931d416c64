#!/bin/sh
# Live-update contract, end to end: pack a snapshot, then prove the three
# roads to the same dynamic interactome are byte-identical — (1) a live
# server applying ADDEDGE/DELEDGE with a write-ahead --journal, (2) an
# offline `pack --apply-deltas` repack, and (3) a restarted server replaying
# that journal. Then the operational drills: a DELEDGE through a cached TCP
# server must invalidate stale PREDICT answers, PREDICT_EDGE must score the
# removed edge (and reject an existing one), the final --report must pass
# the update.* invariants in lamo_report_check, the router must fan
# mutations out to every backend while routing PREDICT_EDGE like PREDICT,
# and --watch-deltas must pick a mutation up from a tailed file. Last, the
# motif-size limit of live updates (16 vertices): a size-11 motif keeps the
# three roads byte-identical, and a size-17 one makes every mutation and
# PREDICT_EDGE fail loudly with nothing journaled.
set -e
LAMO="$1"
BENCH="$2"
REPORT_CHECK="$3"
WORK="$(mktemp -d)"
SERVER=""
SERVER2=""
ROUTER=""
# PART names the section running now; on any failing exit the trap says
# which one failed and dumps the daemon logs written so far, so a failure
# that `set -e` turns into a silent exit (a failing query, say) still
# leaves a diagnosis.
PART="setup"
cleanup() {
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL in Part $PART (exit $rc)" >&2
    for log in "$WORK"/serve_*.log "$WORK"/router*.log; do
      [ -f "$log" ] || continue
      echo "--- $(basename "$log"):" >&2
      cat "$log" >&2
    done
  fi
  [ -n "$SERVER" ] && kill "$SERVER" 2> /dev/null
  [ -n "$SERVER2" ] && kill "$SERVER2" 2> /dev/null
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

# Two distinct edges from the edge list (line 1 is a comment, line 2 the
# vertex count). E1 is deleted and re-added (net no-op); E2 stays deleted,
# so the updated state differs from the base snapshot by exactly one edge.
E1="$(sed -n '3p' "$WORK/ds.graph.txt")"
E2="$(sed -n '20p' "$WORK/ds.graph.txt")"
E1U="${E1%% *}"; E1V="${E1##* }"
E2U="${E2%% *}"; E2V="${E2##* }"
test "$E1" != "$E2" || { echo "FAIL: edge sample collided" >&2; exit 1; }

cat > "$WORK/deltas.txt" << EOF
# exercise both verbs; net effect: base graph minus edge $E2
DELEDGE $E1U $E1V
ADDEDGE $E1U $E1V
DELEDGE $E2U $E2V
EOF
cat > "$WORK/queries.txt" << EOF
PREDICT $E2U 3
PREDICT $E2V 3
MOTIFS $E2U
MOTIFS $E1U
PREDICT_EDGE $E2U $E2V
TERMINFO T0005
EOF

# --- Part 1: live == repack == replay, byte for byte. --------------------
PART=1
# Live: mutations then queries through one --stdin server with a journal.
# Each mutation answers with a 2-line OK response; drop all 6.
grep -v '^#' "$WORK/deltas.txt" | cat - "$WORK/queries.txt" \
  | "$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
    --journal "$WORK/journal" > "$WORK/live_all.out" 2> /dev/null
head -6 "$WORK/live_all.out" | grep -q "applied DELEDGE $E2U $E2V" || {
  echo "FAIL: live server did not acknowledge DELEDGE" >&2
  head -6 "$WORK/live_all.out" >&2
  exit 1
}
head -6 "$WORK/live_all.out" | grep -q "applied ADDEDGE $E1U $E1V" || {
  echo "FAIL: live server did not acknowledge ADDEDGE" >&2
  exit 1
}
sed '1,6d' "$WORK/live_all.out" > "$WORK/live.out"

# Repack: the same deltas folded in offline, comments and all.
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --apply-deltas "$WORK/deltas.txt" --out "$WORK/updated.lamosnap" \
  --shards 2 > "$WORK/pack_deltas.out"
grep -q "applied 3 deltas" "$WORK/pack_deltas.out" || {
  echo "FAIL: pack --apply-deltas did not report 3 applied deltas" >&2
  cat "$WORK/pack_deltas.out" >&2
  exit 1
}
"$LAMO" serve --snapshot "$WORK/updated.lamosnap" --stdin \
  < "$WORK/queries.txt" > "$WORK/repack.out" 2> /dev/null
cmp "$WORK/live.out" "$WORK/repack.out" || {
  echo "FAIL: live-updated server differs from pack --apply-deltas" >&2
  diff "$WORK/live.out" "$WORK/repack.out" | head >&2
  exit 1
}

# Replay: a fresh server on the BASE snapshot + the journal must converge
# to the same answers, and say how many entries it replayed.
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
  --journal "$WORK/journal" < "$WORK/queries.txt" > "$WORK/replay.out" \
  2> "$WORK/replay.err"
cmp "$WORK/replay.out" "$WORK/repack.out" || {
  echo "FAIL: journal replay differs from pack --apply-deltas" >&2
  diff "$WORK/replay.out" "$WORK/repack.out" | head >&2
  exit 1
}
grep -q "journal .* attached (3 updates)" "$WORK/replay.err" || {
  echo "FAIL: replay banner does not show 3 replayed updates" >&2
  cat "$WORK/replay.err" >&2
  exit 1
}
# Journal layout (docs/FORMATS.md): versioned header binding the base
# snapshot checksum, then one wire-grammar line per acknowledged update.
head -1 "$WORK/journal" | grep -q '^LAMOJOURNAL 1 [0-9a-f]\{16\}$' || {
  echo "FAIL: journal header malformed: $(head -1 "$WORK/journal")" >&2
  exit 1
}
test "$(grep -c 'EDGE' "$WORK/journal")" -eq 3 || {
  echo "FAIL: journal does not hold exactly 3 entries" >&2
  cat "$WORK/journal" >&2
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

# --- Part 2: stale-cache regression + PREDICT_EDGE over TCP. -------------
PART=2
# Server A serves the base snapshot with the response cache on; server B
# serves the repacked (edge-deleted) snapshot as the oracle.
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  --report "$WORK/serve_report.json" > "$WORK/serve_a.log" 2>&1 &
SERVER=$!
wait_port "$WORK/serve_a.log"
APORT="$PORT"
"$LAMO" serve --snapshot "$WORK/updated.lamosnap" --port 0 \
  > "$WORK/serve_b.log" 2>&1 &
SERVER2=$!
wait_port "$WORK/serve_b.log"
BPORT="$PORT"

# Warm A's cache on the pre-delete answer, then mutate, then re-ask: the
# answer must be the post-delete one (a stale cache would replay the first).
"$BENCH" --port "$APORT" --query "PREDICT $E2U 3" > "$WORK/pre.txt"
"$BENCH" --port "$BPORT" --query "PREDICT $E2U 3" > "$WORK/post_expected.txt"
"$BENCH" --port "$APORT" --query "DELEDGE $E2U $E2V" > "$WORK/applied.txt"
grep -q "applied DELEDGE $E2U $E2V" "$WORK/applied.txt" || {
  echo "FAIL: TCP DELEDGE not acknowledged: $(cat "$WORK/applied.txt")" >&2
  exit 1
}
"$BENCH" --port "$APORT" --query "PREDICT $E2U 3" > "$WORK/post.txt"
cmp "$WORK/post.txt" "$WORK/post_expected.txt" || {
  echo "FAIL: PREDICT after DELEDGE differs from a fresh server on the" \
    "updated snapshot (stale cache?)" >&2
  diff "$WORK/post.txt" "$WORK/post_expected.txt" | head >&2
  exit 1
}

# PREDICT_EDGE scores the now-missing edge as a candidate interaction...
"$BENCH" --port "$APORT" --query "PREDICT_EDGE $E2U $E2V" > "$WORK/edge.txt"
grep -q "candidate edge $E2U $E2V score" "$WORK/edge.txt" || {
  echo "FAIL: PREDICT_EDGE payload malformed: $(cat "$WORK/edge.txt")" >&2
  exit 1
}
# ...and must reject an edge that is still present.
rc=0
"$BENCH" --port "$APORT" --query "PREDICT_EDGE $E1U $E1V" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: PREDICT_EDGE accepted an existing edge" >&2
  exit 1
}

# The update counters surface in the METRICS exposition before shutdown.
"$BENCH" --port "$APORT" --query "METRICS" > "$WORK/metrics.txt"
grep -q '^lamo_update_applied_total 1$' "$WORK/metrics.txt" || {
  echo "FAIL: METRICS lacks lamo_update_applied_total after one DELEDGE" >&2
  grep '^lamo_update' "$WORK/metrics.txt" >&2 || true
  exit 1
}

kill -TERM "$SERVER"
wait "$SERVER" || {
  echo "FAIL: server A exited nonzero after SIGTERM" >&2
  cat "$WORK/serve_a.log" >&2
  exit 1
}
SERVER=""
# The report must carry nonzero update traffic and pass the update.*
# invariants (applied == added + deleted, journal_replayed <= applied,
# resubgraphs <= esu.subgraphs) checked inside lamo_report_check.
"$REPORT_CHECK" "$WORK/serve_report.json" serve.requests update.applied \
  update.deleted update.resubgraphs hist:update.update_us > /dev/null || {
  echo "FAIL: serve report failed the update.* invariants" >&2
  exit 1
}

# --- Part 3: router fans mutations out to every backend. -----------------
PART=3
"$LAMO" router --snapshot "$WORK/model.lamosnap" --backends 2 \
  --mode sharded --port 0 > "$WORK/router.log" 2> "$WORK/router.err.log" &
ROUTER=$!
wait_port "$WORK/router.log"
RPORT="$PORT"
"$BENCH" --port "$RPORT" --query "DELEDGE $E2U $E2V" > "$WORK/fan.txt"
grep -q "applied DELEDGE $E2U $E2V backends=2" "$WORK/fan.txt" || {
  echo "FAIL: router fan-out not confirmed: $(cat "$WORK/fan.txt")" >&2
  exit 1
}
# After the fan-out every routed answer matches the single updated server.
"$BENCH" --port "$RPORT" --query "PREDICT $E2U 3" > "$WORK/router_post.txt"
cmp "$WORK/router_post.txt" "$WORK/post_expected.txt" || {
  echo "FAIL: router PREDICT after fan-out differs from updated serve" >&2
  diff "$WORK/router_post.txt" "$WORK/post_expected.txt" | head >&2
  exit 1
}
# PREDICT_EDGE routes like PREDICT and scores identically on any backend
# (each shard keeps the full graph and the global motif tables).
"$BENCH" --port "$RPORT" --query "PREDICT_EDGE $E2U $E2V" \
  > "$WORK/router_edge.txt"
cmp "$WORK/router_edge.txt" "$WORK/edge.txt" || {
  echo "FAIL: routed PREDICT_EDGE differs from single-server answer" >&2
  exit 1
}
kill "$ROUTER"
wait "$ROUTER" 2> /dev/null || true
ROUTER=""

# --- Part 4: --watch-deltas tails a file into the same update path. ------
PART=4
: > "$WORK/watched.txt"
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  --watch-deltas "$WORK/watched.txt" --watch-interval-ms 50 \
  > "$WORK/serve_w.log" 2>&1 &
SERVER=$!
wait_port "$WORK/serve_w.log"
WPORT="$PORT"
printf '# rotated in by an external pipeline\nDELEDGE %s %s\n' \
  "$E2U" "$E2V" >> "$WORK/watched.txt"
ok=""
for _ in $(seq 1 100); do
  if grep -q "watch-deltas \"DELEDGE $E2U $E2V\": OK" "$WORK/serve_w.log"
  then
    ok=1
    break
  fi
  sleep 0.1
done
test -n "$ok" || {
  echo "FAIL: --watch-deltas never applied the appended DELEDGE" >&2
  cat "$WORK/serve_w.log" >&2
  exit 1
}
"$BENCH" --port "$WPORT" --query "PREDICT $E2U 3" > "$WORK/watch_post.txt"
cmp "$WORK/watch_post.txt" "$WORK/post_expected.txt" || {
  echo "FAIL: answer after watched delta differs from updated serve" >&2
  exit 1
}
kill "$SERVER"
wait "$SERVER" 2> /dev/null || true
SERVER=""
kill "$SERVER2"
wait "$SERVER2" 2> /dev/null || true
SERVER2=""

# --- Part 5: motif sizes past the old 64-bit pattern key. ----------------
PART=5
# cycle_fixture K C P: C disjoint K-cycles (proteins c*K .. c*K+K-1), then a
# K-vertex open path, every protein annotated with the leaf term T2, and one
# labeled motif, the K-cycle labeled T2 everywhere, whose occurrences are the
# C cycles. Packs it to $WORK/P.lamosnap.
cycle_fixture() {
  p="$WORK/$3"
  awk -v k="$1" -v c="$2" 'BEGIN {
    n = (c + 1) * k
    print "# " c " disjoint " k "-cycles and a path of " k " vertices"
    print "vertices " n
    for (v = 0; v < n; v++) {
      if ((v + 1) % k) print v " " v + 1
      else if (v < c * k) print v + 1 - k " " v
    }
  }' > "$p.graph.txt"
  printf 'format-version: 1.2\n\n[Term]\nid: T0\n\n[Term]\nid: T1\nis_a: T0\n\n[Term]\nid: T2\nis_a: T1\n' \
    > "$p.obo"
  awk -v n=$(( ($2 + 1) * $1 )) 'BEGIN {
    print "# lamo annotations"
    print "proteins " n
    for (v = 0; v < n; v++) print v "\tT2"
  }' > "$p.annotations.tsv"
  awk -v k="$1" -v c="$2" 'BEGIN {
    print "# lamo labeled motifs"
    print "labeled " k " " c " 1 1"
    edges = "edges"
    for (i = 0; i < k; i++) edges = edges " " i "-" (i + 1) % k
    print edges
    for (i = 0; i < k; i++) print "labels " i " T2"
    for (j = 0; j < c; j++) {
      occ = "occ"
      for (i = 0; i < k; i++) occ = occ " " j * k + i
      print occ
    }
    print "end"
  }' > "$p.labeled.txt"
  "$LAMO" pack --graph "$p.graph.txt" --obo "$p.obo" \
    --annotations "$p.annotations.tsv" --labeled "$p.labeled.txt" \
    --out "$p.lamosnap" > /dev/null
}

# Size 11: break cycle 0, close the tail (33..43) into a 4th cycle.
cycle_fixture 11 3 c11
printf 'DELEDGE 0 1\nADDEDGE 33 43\n' > "$WORK/c11.deltas.txt"
printf 'MOTIFS 11\nMOTIFS 33\nPREDICT_EDGE 0 1\nPREDICT 33 3\n' \
  > "$WORK/c11.queries.txt"
cat "$WORK/c11.deltas.txt" "$WORK/c11.queries.txt" \
  | "$LAMO" serve --snapshot "$WORK/c11.lamosnap" --stdin \
    --journal "$WORK/c11.journal" > "$WORK/c11_live_all.out" 2> /dev/null
grep -q "applied DELEDGE 0 1 .*occ_removed=1" "$WORK/c11_live_all.out" || {
  echo "FAIL: size-11 DELEDGE did not remove the broken occurrence" >&2
  cat "$WORK/c11_live_all.out" >&2
  exit 1
}
grep -q "applied ADDEDGE 33 43 .*occ_added=1" "$WORK/c11_live_all.out" || {
  echo "FAIL: size-11 ADDEDGE did not add the closed cycle" >&2
  cat "$WORK/c11_live_all.out" >&2
  exit 1
}
grep -q "size 11 frequency 3 " "$WORK/c11_live_all.out" || {
  echo "FAIL: size-11 motif frequency is not 3 after the updates" >&2
  cat "$WORK/c11_live_all.out" >&2
  exit 1
}
sed '1,4d' "$WORK/c11_live_all.out" > "$WORK/c11_live.out"
"$LAMO" pack --graph "$WORK/c11.graph.txt" --obo "$WORK/c11.obo" \
  --annotations "$WORK/c11.annotations.tsv" \
  --labeled "$WORK/c11.labeled.txt" --apply-deltas "$WORK/c11.deltas.txt" \
  --out "$WORK/c11_updated.lamosnap" > /dev/null
"$LAMO" serve --snapshot "$WORK/c11_updated.lamosnap" --stdin \
  < "$WORK/c11.queries.txt" > "$WORK/c11_repack.out" 2> /dev/null
cmp "$WORK/c11_live.out" "$WORK/c11_repack.out" || {
  echo "FAIL: size-11 live update differs from pack --apply-deltas" >&2
  diff "$WORK/c11_live.out" "$WORK/c11_repack.out" | head >&2
  exit 1
}
"$LAMO" serve --snapshot "$WORK/c11.lamosnap" --stdin \
  --journal "$WORK/c11.journal" < "$WORK/c11.queries.txt" \
  > "$WORK/c11_replay.out" 2> /dev/null
cmp "$WORK/c11_replay.out" "$WORK/c11_repack.out" || {
  echo "FAIL: size-11 journal replay differs from pack --apply-deltas" >&2
  diff "$WORK/c11_replay.out" "$WORK/c11_repack.out" | head >&2
  exit 1
}

# Size 17: past the limit. Mutations and PREDICT_EDGE answer ERR
# Unimplemented, the journal keeps only its header, and PREDICT and MOTIFS
# answer exactly as on a server that saw no mutation attempt.
cycle_fixture 17 2 c17
printf 'MOTIFS 0\nPREDICT 0 3\n' > "$WORK/c17.queries.txt"
"$LAMO" serve --snapshot "$WORK/c17.lamosnap" --stdin \
  --journal "$WORK/c17.journal" < "$WORK/c17.queries.txt" \
  > "$WORK/c17_before.out" 2> /dev/null
grep -q '^OK' "$WORK/c17_before.out" || {
  echo "FAIL: size-17 snapshot does not answer queries" >&2
  exit 1
}
cp "$WORK/c17.journal" "$WORK/c17.journal.before"
printf 'DELEDGE 0 1\nADDEDGE 34 50\nPREDICT_EDGE 34 50\n' \
  | cat - "$WORK/c17.queries.txt" \
  | "$LAMO" serve --snapshot "$WORK/c17.lamosnap" --stdin \
    --journal "$WORK/c17.journal" > "$WORK/c17_all.out" 2> /dev/null
test "$(head -3 "$WORK/c17_all.out" | grep -c '^ERR Unimplemented')" -eq 3 || {
  echo "FAIL: size-17 mutations/PREDICT_EDGE were not refused" >&2
  cat "$WORK/c17_all.out" >&2
  exit 1
}
cmp "$WORK/c17.journal" "$WORK/c17.journal.before" || {
  echo "FAIL: a refused size-17 mutation changed the journal" >&2
  exit 1
}
sed '1,3d' "$WORK/c17_all.out" > "$WORK/c17_after.out"
cmp "$WORK/c17_after.out" "$WORK/c17_before.out" || {
  echo "FAIL: size-17 queries changed after refused mutations" >&2
  diff "$WORK/c17_after.out" "$WORK/c17_before.out" | head >&2
  exit 1
}
# ESU's pattern keys stop at 16 vertices: a larger --max-size is refused.
rc=0
"$LAMO" mine --graph "$WORK/c17.graph.txt" --algo esu --min-size 17 \
  --max-size 17 --min-freq 1 --networks 0 --out "$WORK/c17.motifs.txt" \
  > /dev/null 2> "$WORK/c17_mine.err" || rc=$?
if [ "$rc" -eq 0 ] || ! grep -q "InvalidArgument" "$WORK/c17_mine.err"; then
  echo "FAIL: mine --algo esu --max-size 17 was not refused (rc=$rc)" >&2
  cat "$WORK/c17_mine.err" >&2
  exit 1
fi

echo "live update OK: live == repack == replay byte-identical, stale cache" \
  "invalidated, PREDICT_EDGE scored+rejected, update.* report invariants," \
  "router fan-out x2, watch-deltas applied, size-11 motif maintained," \
  "size-17 mutations refused unjournaled"
