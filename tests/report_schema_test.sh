#!/bin/sh
# Schema test for --report: run the ESU miner over a small synthetic graph
# with a JSON run report enabled, then validate the document's required keys
# (and that the ESU/parallel counters actually recorded work) with
# lamo_report_check. Also exercises --stats and checks the predictor path
# emits a report at all. Every stage's report must carry the process's own
# peak RSS (the process.peak_rss_kb gauge).
set -e
LAMO="$1"
CHECK="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 300 --copies 20 --seed 9 --out "$WORK/ds" \
  > /dev/null

"$LAMO" mine --graph "$WORK/ds.graph.txt" --algo esu --min-size 3 \
  --max-size 4 --min-freq 15 --networks 3 --uniqueness 0.5 --threads 2 \
  --report "$WORK/mine.json" --stats --out "$WORK/motifs.txt" \
  > /dev/null 2> "$WORK/mine.stats.txt"
"$CHECK" "$WORK/mine.json" \
  esu.subgraphs esu.canon_cache_misses parallel.chunks \
  uniqueness.replicates \
  hist:esu.chunk_us hist:uniqueness.replicate_us hist:pool.queue_wait_us \
  gauge:process.peak_rss_kb

grep -q "lamo mine run stats" "$WORK/mine.stats.txt" || {
  echo "FAIL: --stats printed no summary" >&2
  exit 1
}

"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$WORK/motifs.txt" \
  --sigma 5 --report "$WORK/label.json" --out "$WORK/labeled.txt" > /dev/null
"$CHECK" "$WORK/label.json" lamofinder.so_cells lamofinder.cluster_merges \
  hist:lamofinder.so_cell_us hist:lamofinder.cluster_merge_us \
  gauge:process.peak_rss_kb

# Only schema version 2 is accepted: a report claiming version 1 fails.
sed 's/"lamo_report_version":[0-9]*/"lamo_report_version":1/' \
  "$WORK/label.json" > "$WORK/v1.json"
grep -q '"lamo_report_version":1' "$WORK/v1.json" || {
  echo "FAIL: could not rewrite the report version" >&2
  exit 1
}
if "$CHECK" "$WORK/v1.json" > /dev/null 2>&1; then
  echo "FAIL: lamo_report_check accepted lamo_report_version 1" >&2
  exit 1
fi

"$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --protein 1 --report "$WORK/predict.json" > /dev/null
"$CHECK" "$WORK/predict.json" gauge:process.peak_rss_kb

"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --report "$WORK/pack.json" --out "$WORK/ds.lamosnap" > /dev/null
"$CHECK" "$WORK/pack.json" gauge:process.peak_rss_kb

# A report whose peak RSS is not a positive kB count is rejected.
sed 's/"process.peak_rss_kb":[0-9.e+]*/"process.peak_rss_kb":0/' \
  "$WORK/pack.json" > "$WORK/bad_rss.json"
if "$CHECK" "$WORK/bad_rss.json" > /dev/null 2>&1; then
  echo "FAIL: lamo_report_check accepted process.peak_rss_kb = 0" >&2
  exit 1
fi

echo "report schema OK"
