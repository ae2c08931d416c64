#!/bin/sh
# Determinism contract of the parallel runtime: mine -> label over a synth
# dataset must produce byte-identical outputs with --threads 1 and
# --threads 4 (and under a LAMO_THREADS override). See DESIGN.md "Parallel
# runtime".
set -e
LAMO="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 400 --copies 30 --seed 5 --out "$WORK/ds" \
  > /dev/null

# Each run also writes a JSON run report (--report) and a Chrome trace
# (--trace). Both contain wall times, so they are *not* part of the
# byte-compare below — the contract covers pipeline outputs only. Collecting
# them here proves instrumentation does not perturb the deterministic
# results.
for threads in 1 4; do
  "$LAMO" mine --graph "$WORK/ds.graph.txt" --min-size 3 --max-size 5 \
    --min-freq 20 --networks 5 --uniqueness 0.8 --threads "$threads" \
    --report "$WORK/mine.t$threads.json" \
    --trace "$WORK/mine.t$threads.trace.json" \
    --out "$WORK/motifs.t$threads.txt" > /dev/null
  test -s "$WORK/mine.t$threads.json"
  test -s "$WORK/mine.t$threads.trace.json"
  "$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
    --annotations "$WORK/ds.annotations.tsv" \
    --motifs "$WORK/motifs.t$threads.txt" --sigma 6 \
    --threads "$threads" --report "$WORK/label.t$threads.json" \
    --trace "$WORK/label.t$threads.trace.json" \
    --out "$WORK/labeled.t$threads.txt" > /dev/null
  test -s "$WORK/label.t$threads.json"
  test -s "$WORK/label.t$threads.trace.json"
done

cmp "$WORK/motifs.t1.txt" "$WORK/motifs.t4.txt" || {
  echo "FAIL: mine output differs between --threads 1 and --threads 4" >&2
  exit 1
}
cmp "$WORK/labeled.t1.txt" "$WORK/labeled.t4.txt" || {
  echo "FAIL: label output differs between --threads 1 and --threads 4" >&2
  exit 1
}

# The env override must route through the same policy (flag absent -> env).
LAMO_THREADS=3 "$LAMO" mine --graph "$WORK/ds.graph.txt" --min-size 3 \
  --max-size 5 --min-freq 20 --networks 5 --uniqueness 0.8 \
  --out "$WORK/motifs.env.txt" > /dev/null
cmp "$WORK/motifs.t1.txt" "$WORK/motifs.env.txt" || {
  echo "FAIL: mine output differs under LAMO_THREADS=3" >&2
  exit 1
}

# The serving artifacts obey the same contract: `lamo pack` must be
# byte-reproducible for any thread count, and served responses must be
# identical across thread counts and with the response cache on or off
# (cache hits replay the same bytes recomputation would produce).
for threads in 1 4; do
  "$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
    --annotations "$WORK/ds.annotations.tsv" \
    --labeled "$WORK/labeled.t1.txt" --threads "$threads" \
    --out "$WORK/snap.t$threads.lamosnap" > /dev/null
done
cmp "$WORK/snap.t1.lamosnap" "$WORK/snap.t4.lamosnap" || {
  echo "FAIL: pack output differs between --threads 1 and --threads 4" >&2
  exit 1
}

awk 'BEGIN {
  print "HEALTH";
  for (p = 0; p < 400; p += 13) printf "PREDICT %d\n", p;
  for (p = 0; p < 400; p += 29) printf "MOTIFS %d\n", p;
  for (p = 0; p < 400; p += 37) printf "PREDICT %d 5\n", p;
  print "PREDICT 7"; print "PREDICT 7";  # repeat: exercises a cache hit
}' > "$WORK/requests.txt"
"$LAMO" serve --snapshot "$WORK/snap.t1.lamosnap" --stdin --threads 1 \
  < "$WORK/requests.txt" > "$WORK/resp.t1.txt" 2> /dev/null
"$LAMO" serve --snapshot "$WORK/snap.t1.lamosnap" --stdin --threads 4 \
  < "$WORK/requests.txt" > "$WORK/resp.t4.txt" 2> /dev/null
"$LAMO" serve --snapshot "$WORK/snap.t1.lamosnap" --stdin --threads 4 \
  --no-cache < "$WORK/requests.txt" > "$WORK/resp.nocache.txt" 2> /dev/null
cmp "$WORK/resp.t1.txt" "$WORK/resp.t4.txt" || {
  echo "FAIL: serve responses differ between --threads 1 and --threads 4" >&2
  exit 1
}
cmp "$WORK/resp.t1.txt" "$WORK/resp.nocache.txt" || {
  echo "FAIL: serve responses differ with the cache disabled" >&2
  exit 1
}

echo "determinism OK: serial and parallel outputs are byte-identical" \
  "(mine/label/pack/serve)"
