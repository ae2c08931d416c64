#!/bin/sh
# Both `lamo mine` routes share one uniqueness ensemble and its flags:
# --networks 0 keeps every frequent pattern on either route, and --seed
# reaches the level-wise ensemble as well as the ESU one (default 42).
set -e
LAMO="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 300 --seed 1 --out "$WORK/ds" > /dev/null
FLAGS="--graph $WORK/ds.graph.txt --min-freq 8 --max-size 4"

# found_motifs <out>: the motif count `lamo mine` printed.
found_motifs() {
  sed -n 's/^found \([0-9]*\) network motifs$/\1/p' "$1"
}

for algo in levelwise esu; do
  "$LAMO" mine $FLAGS --algo "$algo" --networks 0 \
    --out "$WORK/$algo.motifs.txt" > "$WORK/$algo.out"
  found="$(found_motifs "$WORK/$algo.out")"
  test -n "$found" && test "$found" -gt 0 || {
    echo "FAIL: --algo $algo --networks 0 kept no motifs" >&2
    cat "$WORK/$algo.out" >&2
    exit 1
  }
done

# The uniqueness checkpoint's fingerprint covers the seed, so two seeds
# must leave two different files.
for seed in 7 42; do
  "$LAMO" mine $FLAGS --networks 3 --seed "$seed" \
    --checkpoint "$WORK/ck$seed" --out "$WORK/seed$seed.txt" > /dev/null
done
# A missing file must fail here, not pass as "different".
for seed in 7 42; do
  test -f "$WORK/ck$seed/uniqueness.ckpt" || {
    echo "FAIL: --seed $seed left no uniqueness checkpoint" >&2
    exit 1
  }
done
if cmp -s "$WORK/ck7/uniqueness.ckpt" "$WORK/ck42/uniqueness.ckpt"; then
  echo "FAIL: --seed does not reach the level-wise uniqueness ensemble" >&2
  exit 1
fi
"$LAMO" mine $FLAGS --networks 3 --out "$WORK/default.txt" > /dev/null
cmp "$WORK/default.txt" "$WORK/seed42.txt" || {
  echo "FAIL: default output differs from --seed 42 output" >&2
  exit 1
}

echo "mine routes OK: --networks 0 keeps motifs, --seed reaches levelwise"
