#!/bin/sh
# Crash matrix: for EVERY fault point registered in the binary (as printed
# by `lamo fault-points`), run the pipeline stage that owns the point with
# LAMO_FAULT armed until the injected abort fires, then run again with
# --resume and require the final outputs byte-identical to an uninterrupted
# run — with no *.tmp debris left behind. A fault point with no entry in the
# case below fails the suite, so new fault points cannot ship untested.
set -e
LAMO="$1"
REPORT_CHECK="$2"
BENCH="$3"
WORK="$(mktemp -d)"
ROUTER_PID=""
cleanup() {
  [ -n "$ROUTER_PID" ] && kill "$ROUTER_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

FAULT_EXIT=42  # kFaultExitCode: proves the abort came from the armed point

"$LAMO" generate --proteins 260 --copies 25 --seed 11 --out "$WORK/ds" \
  > /dev/null

# Uninterrupted baselines, one per pipeline the matrix drives. Baselines run
# WITHOUT checkpointing, so the matrix also proves that checkpointed and
# resumed runs reproduce the plain run byte for byte.
LW_FLAGS="--graph $WORK/ds.graph.txt --min-size 3 --max-size 4 --min-freq 15"
ESU_FLAGS="--graph $WORK/ds.graph.txt --algo esu --min-size 3 --max-size 3 \
  --min-freq 15 --networks 4 --seed 9"
LABEL_FLAGS="--graph $WORK/ds.graph.txt --obo $WORK/ds.obo \
  --annotations $WORK/ds.annotations.tsv --sigma 6"

"$LAMO" mine $LW_FLAGS --out "$WORK/base_lw.txt" > /dev/null 2>&1
"$LAMO" mine $ESU_FLAGS --out "$WORK/base_esu.txt" > /dev/null 2>&1
"$LAMO" label $LABEL_FLAGS --motifs "$WORK/base_lw.txt" \
  --out "$WORK/base_label.txt" > /dev/null 2>&1

# run_case <point> <spec> <expected_exit> <baseline> <command...>
# Arms <spec>, expects the run to exit with <expected_exit>, then reruns
# with --resume and compares the output against <baseline>.
run_case() {
  point="$1"; spec="$2"; want_exit="$3"; baseline="$4"; shift 4
  ck="$WORK/ck_$point"
  out="$WORK/out_$point.txt"
  rm -rf "$ck" "$out"
  rc=0
  LAMO_FAULT="$spec" "$@" --checkpoint "$ck" --out "$out" \
    > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want_exit" ]; then
    echo "FAIL: $point: armed run exited $rc, expected $want_exit" >&2
    exit 1
  fi
  if [ "$want_exit" -ne 0 ]; then
    "$@" --checkpoint "$ck" --resume --out "$out" > /dev/null 2>&1 || {
      echo "FAIL: $point: resume run failed" >&2
      exit 1
    }
  fi
  cmp "$baseline" "$out" || {
    echo "FAIL: $point: resumed output differs from uninterrupted run" >&2
    exit 1
  }
  leftovers="$(find "$ck" "$WORK" -maxdepth 1 -name '*.tmp' 2> /dev/null)"
  if [ -n "$leftovers" ]; then
    echo "FAIL: $point: tmp files left behind: $leftovers" >&2
    exit 1
  fi
}

# Lazy one-time setup for the router.* fault points: pack a snapshot from
# the label baseline, and record the un-faulted answer the faulted router
# run must reproduce.
router_setup() {
  [ -f "$WORK/model.lamosnap" ] && return 0
  "$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
    --annotations "$WORK/ds.annotations.tsv" \
    --labeled "$WORK/base_label.txt" --out "$WORK/model.lamosnap" > /dev/null
  printf 'PREDICT 7 3\n' | "$LAMO" serve \
    --snapshot "$WORK/model.lamosnap" --stdin 2> /dev/null \
    | sed '1d' > "$WORK/router_baseline_answer.txt"
}

# Polls a router log for the listening banner; sets ROUTER_PORT.
router_wait_port() {
  ROUTER_PORT=""
  for _ in $(seq 1 200); do
    # The log may not exist yet (the shell opens it in the forked
    # child): read that as "no banner yet" and keep polling.
    ROUTER_PORT="$(sed -n \
      's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1" 2> /dev/null)" || true
    [ -n "$ROUTER_PORT" ] && return 0
    sleep 0.1
  done
  echo "FAIL: router did not start (no listening banner in $1)" >&2
  exit 1
}

POINTS="$("$LAMO" fault-points)"
test -n "$POINTS" || {
  echo "FAIL: lamo fault-points printed nothing" >&2
  exit 1
}

for point in $POINTS; do
  case "$point" in
    mine.enum.chunk | mine.uniq.replicate)
      # ESU route: crash on the 2nd hit so at least one checkpoint exists.
      run_case "$point" "$point:2" "$FAULT_EXIT" "$WORK/base_esu.txt" \
        "$LAMO" mine $ESU_FLAGS
      ;;
    mine.level | uniqueness.replicate)
      run_case "$point" "$point:2" "$FAULT_EXIT" "$WORK/base_lw.txt" \
        "$LAMO" mine $LW_FLAGS
      ;;
    atomic.write | atomic.pre_rename)
      # Crash inside the atomic-write machinery itself (mid checkpoint or
      # mid final output): the interrupted file must never be observed torn.
      run_case "$point" "$point:2" "$FAULT_EXIT" "$WORK/base_lw.txt" \
        "$LAMO" mine $LW_FLAGS
      ;;
    checkpoint.save)
      # A failing checkpoint save is NON-fatal: the run must finish with
      # exit 0 and correct output, just without that checkpoint.
      run_case "$point" "$point:1:error" 0 "$WORK/base_lw.txt" \
        "$LAMO" mine $LW_FLAGS
      ;;
    label.motif)
      run_case "$point" "$point:2" "$FAULT_EXIT" "$WORK/base_label.txt" \
        "$LAMO" label $LABEL_FLAGS --motifs "$WORK/base_lw.txt"
      ;;
    router.forward)
      # Injected transport error on the router's forward path: the request
      # must be retried transparently — the client still gets the correct
      # answer and the router reports zero errors. Backends unset LAMO_FAULT
      # on exec, so the armed point fires in the router process only.
      router_setup
      rm -f "$WORK/router_fwd.log"
      LAMO_FAULT="router.forward:1:error" "$LAMO" router \
        --snapshot "$WORK/model.lamosnap" --backends 1 --mode replicated \
        --port 0 > "$WORK/router_fwd.log" 2> /dev/null &
      ROUTER_PID=$!
      router_wait_port "$WORK/router_fwd.log"
      "$BENCH" --port "$ROUTER_PORT" --query "PREDICT 7 3" \
        > "$WORK/router_fwd_answer.txt"
      cmp "$WORK/router_baseline_answer.txt" "$WORK/router_fwd_answer.txt" || {
        echo "FAIL: router.forward: retried answer differs from baseline" >&2
        exit 1
      }
      kill "$ROUTER_PID" 2> /dev/null
      wait "$ROUTER_PID" || true
      ROUTER_PID=""
      ;;
    router.spawn)
      # Crash the router while it is spawning backend 2 of 2: the exit code
      # must be the fault code, and the already-spawned backend must die
      # with its parent (PR_SET_PDEATHSIG) instead of leaking.
      router_setup
      rc=0
      LAMO_FAULT="router.spawn:2" "$LAMO" router \
        --snapshot "$WORK/model.lamosnap" --backends 2 --mode replicated \
        --port 0 > /dev/null 2>&1 || rc=$?
      if [ "$rc" -ne "$FAULT_EXIT" ]; then
        echo "FAIL: router.spawn: armed run exited $rc, expected" \
          "$FAULT_EXIT" >&2
        exit 1
      fi
      sleep 1
      if pgrep -f "serve --snapshot $WORK/model.lamosnap" > /dev/null 2>&1
      then
        echo "FAIL: router.spawn: backend serve process leaked" >&2
        exit 1
      fi
      ;;
    update.journal | update.apply)
      # Kill the serve daemon mid-update, at both sides of the write-ahead
      # barrier. update.journal fires BEFORE the entry reaches the journal:
      # the update was never acknowledged, so a restart must answer exactly
      # like an untouched server. update.apply fires AFTER the fsync'd
      # append but BEFORE the in-memory apply: the entry is durable, so a
      # restart must replay it and answer exactly like a server that
      # completed the update. Both compared byte-for-byte.
      router_setup
      EDGE_LINE="$(sed -n '3p' "$WORK/ds.graph.txt")"
      EU="${EDGE_LINE%% *}"
      EV="${EDGE_LINE##* }"
      QUERIES="$WORK/update_queries.txt"
      if [ ! -f "$QUERIES" ]; then
        printf 'PREDICT %s 3\nPREDICT %s 3\nMOTIFS %s\n' \
          "$EU" "$EV" "$EU" > "$QUERIES"
        "$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
          < "$QUERIES" 2> /dev/null > "$WORK/update_pre_baseline.txt"
        { printf 'DELEDGE %s %s\n' "$EU" "$EV"; cat "$QUERIES"; } \
          | "$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
            2> /dev/null | sed '1,2d' > "$WORK/update_post_baseline.txt"
      fi
      JOURNAL="$WORK/journal_$point"
      rm -f "$JOURNAL" "$WORK/serve_$point.log"
      LAMO_FAULT="$point:1" "$LAMO" serve \
        --snapshot "$WORK/model.lamosnap" --journal "$JOURNAL" --port 0 \
        > "$WORK/serve_$point.log" 2> /dev/null &
      ROUTER_PID=$!
      router_wait_port "$WORK/serve_$point.log"
      "$BENCH" --port "$ROUTER_PORT" --query "DELEDGE $EU $EV" \
        > /dev/null 2>&1 || true
      rc=0
      wait "$ROUTER_PID" || rc=$?
      ROUTER_PID=""
      if [ "$rc" -ne "$FAULT_EXIT" ]; then
        echo "FAIL: $point: armed serve exited $rc, expected $FAULT_EXIT" >&2
        exit 1
      fi
      case "$point" in
        update.journal) EXPECT="$WORK/update_pre_baseline.txt" ;;
        *) EXPECT="$WORK/update_post_baseline.txt" ;;
      esac
      "$LAMO" serve --snapshot "$WORK/model.lamosnap" --journal "$JOURNAL" \
        --stdin < "$QUERIES" 2> /dev/null > "$WORK/update_replay_$point.txt"
      cmp "$EXPECT" "$WORK/update_replay_$point.txt" || {
        echo "FAIL: $point: restarted server state differs from the" \
          "$([ "$point" = update.journal ] && echo pre || echo post)-update" \
          "baseline" >&2
        exit 1
      }
      ;;
    *)
      echo "FAIL: fault point '$point' has no crash-matrix entry —" \
        "add one to tests/fault_resume_test.sh" >&2
      exit 1
      ;;
  esac
done

# Resumed runs surface their progress in the run report: checkpoint.* obs
# counters must exist and satisfy the report checker's invariants
# (resumed_chunks <= total_chunks, writes == fsyncs).
rm -rf "$WORK/ck_report"
rc=0
LAMO_FAULT="mine.level:2" "$LAMO" mine $LW_FLAGS \
  --checkpoint "$WORK/ck_report" --out "$WORK/report_out.txt" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -eq "$FAULT_EXIT"
"$LAMO" mine $LW_FLAGS --checkpoint "$WORK/ck_report" --resume \
  --report "$WORK/resume_report.json" --out "$WORK/report_out.txt" \
  > /dev/null 2>&1
"$REPORT_CHECK" "$WORK/resume_report.json" checkpoint.writes \
  checkpoint.resumed_chunks > /dev/null

# A corrupted checkpoint must force a clean restart, not a wrong resume:
# flip one byte in the saved checkpoint and verify output is still exact.
rm -rf "$WORK/ck_corrupt"
rc=0
LAMO_FAULT="mine.level:2" "$LAMO" mine $LW_FLAGS \
  --checkpoint "$WORK/ck_corrupt" --out "$WORK/corrupt_out.txt" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -eq "$FAULT_EXIT"
CKPT="$WORK/ck_corrupt/mine_levels.ckpt"
test -s "$CKPT"
printf 'X' | dd of="$CKPT" bs=1 seek=30 conv=notrunc 2> /dev/null
"$LAMO" mine $LW_FLAGS --checkpoint "$WORK/ck_corrupt" --resume \
  --out "$WORK/corrupt_out.txt" > /dev/null 2>&1
cmp "$WORK/base_lw.txt" "$WORK/corrupt_out.txt" || {
  echo "FAIL: resume after checkpoint corruption produced wrong output" >&2
  exit 1
}

echo "fault matrix OK: every fault point crash-resumed to byte-identical" \
  "output, checkpoint corruption forced a clean restart"
