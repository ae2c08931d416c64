"""Traced run of one workload: per-layer metrics.

After the untraced run, the workload is replayed three ways:

1. the CLI stages again with --report, each report checked by
   lamo_report_check (counters, histograms, worker split);
2. the serving phase again against a daemon started with --report, with a
   closed-loop round-trip sample and STATS/METRICS scrapes of the serve
   process (or the router and each backend);
3. perfbench_layers, which calls each layer's public functions in-process
   and records a span around each call (name, start, end, parent, request).

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans. Deterministic counts must be
identical between the CLI reports and the in-process replay, and across
traced runs of one seed in this checkout.
"""

import json
import os
import statistics
import subprocess

EXACT_COUNTS = ["motif.candidate_sets", "motif.pattern_tests", "core.so_cells",
                "core.cluster_merges", "motif.resubgraphs_per_update"]
LAYERS = ["io", "graph", "motif", "ontology", "core", "predict", "serve"]
REPLAY_READS = 20000


def span_table(spans):
    """[(name, dur_ns, self_ns, request)] from [name, start, end, parent, req]."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[2] - s[1], s[2] - s[1] - child[i], s[4])
            for i, s in enumerate(spans)]


def durations(table, name):
    return [d for n, d, _, _ in table if n == name]


def p50(values, default=0.0):
    return statistics.median(values) if values else default


def prom(text):
    """Prometheus exposition -> {name or name{labels}: value}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            pass
    return out


def stats_lines(text):
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def counter(report, name):
    return float(report.get("counters", {}).get(name, 0))


def hist_mean(report, name):
    h = report.get("histograms", {}).get(name, {})
    return h["sum"] / h["count"] if h.get("count") else 0.0


def run_layers(R, ctx, mode, extra):
    out = os.path.join(ctx.work, "layers-%s.json" % mode)
    subprocess.run([R.tool("perfbench_layers"), mode, "--dir", ctx.work,
                    "--threads", str(R.THREADS), "--out", out] + extra,
                   check=True, cwd=ctx.work)
    with open(out) as fh:
        doc = json.load(fh)
    for name, ok in sorted(doc["checks"].items()):
        ctx.ledger.check(ok, "in-process replay check %s" % name)
    return doc


def check_report(R, ctx, path):
    proc = subprocess.run([R.tool("lamo_report_check"), path], cwd=ctx.work,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    ctx.ledger.check(proc.returncode == 0, "lamo_report_check %s" % path)


def serving_pass(R, ctx, res):
    """Replays the serving phase on a daemon with --report; scrapes it."""
    kind = res["kind"]
    d, _ = R.launch(ctx, kind, report=True)
    try:
        R.run_schedule(ctx, d.port, res["warmup_items"], "warmup")
        rows = []
        for k, items in enumerate(res["nominal_items"]):
            phase = R.run_schedule(ctx, d.port, items, "traced-%d" % k)
            for r in phase:
                r["phase"] = k
            rows += phase
        if res["tail_items"]:
            rows += R.run_schedule(ctx, d.port, res["tail_items"],
                                   "traced_tail", closed=True)
        ctx.ledger.check(True, "traced requests", n=len(rows),
                         bad=sum(1 for r in rows if not r["ok"]))
        reads = [it for items in res["nominal_items"] for it in items
                 if it[2].split()[0] in R.READ_VERBS]
        # The first nominal sub-phase's reads again, from a client that
        # keeps the kernel's delayed ACKs (see perfbench/loadgen.cc).
        held = [it for it in res["nominal_items"][0]
                if it[2].split()[0] in R.READ_VERBS]
        held_rows = R.run_schedule(ctx, d.port, held, "delayed_ack",
                                   delayed_ack=True)
        ctx.ledger.check(True, "delayed-ACK reads", n=len(held_rows),
                         bad=sum(1 for r in held_rows if not r["ok"]))
        sample = [(0, i % 2, it[2]) for i, it in enumerate(reads[:3000])]
        rtt_rows = R.run_schedule(ctx, d.port, sample, "rtt", closed=True)
        rtt = [r["recv"] - r["send"] for r in rtt_rows if r["ok"]]
        out = {"rows": rows, "rtt_us": p50(rtt),
               "delayed_ack_p50_us": p50([R.latency_us(r) for r in held_rows
                                          if r["ok"]]),
               "read_p50_us": R.read_p50([r for r in rows if "phase" in r])}
        backends = []
        if kind == "router":
            router_stats = R.request(d.port, "STATS")
            out["router_metrics"] = prom(R.request(d.port, "METRICS"))
            for line in router_stats.splitlines():
                if line.startswith("backend ") and " port=" in line:
                    port = int(line.split(" port=")[1].split()[0])
                    shard = int(line.split()[1])
                    backends.append((shard, port))
            # Direct backend round trips for the same reads (owner shard).
            direct = []
            for i, (_, _, line) in enumerate(reads[:3000]):
                parts = line.split()
                owner = int(parts[1]) % 2 if parts[0] != "TERMINFO" else 0
                direct.append((0, owner, line))
            by_shard = {s: p for s, p in backends}
            rtts = []
            for shard in (0, 1):
                items = [it for it in direct if it[1] == shard]
                rr = R.run_schedule(ctx, by_shard[shard],
                                    [(0, 0, it[2]) for it in items],
                                    "direct%d" % shard, closed=True)
                rtts += [r["recv"] - r["send"] for r in rr if r["ok"]]
            out["backend_rtt_us"] = p50(rtts)
            targets = [p for _, p in backends]
        else:
            targets = [d.port]
        out["stats"] = [stats_lines(R.request(p, "STATS")) for p in targets]
        pool = R.ROUTER_THREADS if kind == "router" else R.THREADS
        ctx.ledger.check(all(st.get("threads") == pool for st in out["stats"]),
                         "serving pools run %d worker(s)" % pool)
        out["metrics"] = [prom(R.request(p, "METRICS")) for p in targets]
    finally:
        ctx.daemons.remove(d)
        code = d.stop()
    ctx.ledger.check(code == 0, "traced daemon exit code %s" % code)
    check_report(R, ctx, "%s.report.json" % kind)
    return out


def traced_metrics(R, ctx, m, res):
    wl = ctx.workload
    algo = "levelwise" if wl == "build" else "esu"
    untraced_pipe = res["pipe"]
    untraced_busy = dict(ctx.busy)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    # 1. CLI stages with --report.
    traced_pipe = R.pipeline(ctx, algo, shards=2 if wl == "cluster_mixed" else 1,
                             report=True)
    reports = {}
    for stage in ("mine", "label", "pack"):
        path = stage + ".report.json"
        check_report(R, ctx, path)
        with open(os.path.join(ctx.work, path)) as fh:
            reports[stage] = json.load(fh)
    stage_sum = lambda p: p["mine_s"] + p["label_s"] + p["pack_s"]
    put("trace.pipeline_overhead_share",
        stage_sum(traced_pipe) / stage_sum(untraced_pipe) - 1.0, "share")

    # 2. Serving pass with --report, scrapes and round trips.
    sv = serving_pass(R, ctx, res)
    put("trace.read_overhead_share",
        sv["read_p50_us"] / m["read_p50_us"] - 1.0, "share")

    # 3. In-process replays.
    pipe_doc = run_layers(R, ctx, "pipeline",
                          ["--algo", algo, "--min-freq",
                           str(ctx.scale["min_freq"])])
    req_path = os.path.join(ctx.work, "replay.requests")
    read_ids = set()  # request ids (1-based line numbers) of the reads
    with open(req_path, "w") as fh:
        stream = [it for items in res["nominal_items"] for it in items]
        written = 0
        for _, _, line in stream + res["tail_items"]:
            if line.split()[0] in R.READ_VERBS:
                if len(read_ids) >= REPLAY_READS:
                    continue
                read_ids.add(written + 1)
            fh.write(line + "\n")
            written += 1
    req_doc = run_layers(R, ctx, "requests",
                         ["--snapshot", "run.lamosnap", "--requests", req_path])
    P = span_table(pipe_doc["spans"])
    Q = span_table(req_doc["spans"])
    ms = lambda ns: ns / 1e6
    us = lambda ns: ns / 1e3

    # Per-layer self time and call counts over both replays. Handle is timed
    # whole and then replayed call by call; the layers are split by the
    # replayed calls, so the whole-Handle spans are left out here.
    for layer in LAYERS:
        rows = [t for t in P + Q if t[0].split(".")[0] == layer and
                t[0] not in ("serve.handle", "serve.components")]
        put(layer + ".self_ms", ms(sum(t[2] for t in rows)), "ms")
        put(layer + ".calls", len(rows), "count")

    # io / graph / motif
    put("io.parse_ms", ms(sum(durations(P, "io.parse"))), "ms")
    put("io.motif_read_ms", ms(sum(durations(P, "io.motif_read"))), "ms")
    put("io.motif_write_ms", ms(sum(durations(P, "io.motif_write"))), "ms")
    put("graph.index_build_ms", ms(sum(durations(P, "graph.index_build"))), "ms")
    put("motif.miner_s", sum(durations(P, "motif.miner")) / 1e9, "s")
    put("motif.esu_s", sum(durations(P, "motif.esu")) / 1e9, "s")
    put("motif.uniqueness_s", sum(durations(P, "motif.uniqueness")) / 1e9, "s")
    mine_r = reports["mine"]
    cand = counter(mine_r, "miner.candidate_sets")
    dedup = counter(mine_r, "miner.dedup_hits")
    put("motif.candidate_sets", cand, "count")
    put("motif.dedup_share", dedup / (dedup + cand) if cand + dedup else 0.0,
        "share")
    put("motif.replicate_ms", hist_mean(mine_r, "uniqueness.replicate_us") / 1e3,
        "ms")
    put("motif.pattern_tests", counter(mine_r, "uniqueness.pattern_tests"),
        "count")

    # ontology / core
    label_r = reports["label"]
    hits = counter(label_r, "similarity.memo_hits")
    misses = counter(label_r, "similarity.memo_misses")
    put("ontology.st_memo_hit_share", hits / (hits + misses) if hits + misses
        else 0.0, "share")
    put("ontology.st_lock_contention", counter(label_r,
                                               "similarity.lock_contention"),
        "count")
    lm = durations(P, "core.label_motif")
    put("core.label_motif_ms_p50", ms(p50(lm)), "ms")
    put("core.label_motif_ms_max", ms(max(lm, default=0)), "ms")
    put("core.so_cells", counter(label_r, "lamofinder.so_cells"), "count")
    put("core.so_cell_us", hist_mean(label_r, "lamofinder.so_cell_us"), "us")
    put("core.cluster_merges", counter(label_r, "lamofinder.cluster_merges"),
        "count")

    # parallel
    put("parallel.queue_wait_ms",
        sum(counter(r, "pool.queue_wait_us") for r in reports.values()) / 1e3,
        "ms")
    busy = untraced_busy
    put("parallel.busy_share",
        (busy["mine"][0] + busy["label"][0]) /
        ((busy["mine"][1] + busy["label"][1]) * R.THREADS), "share")

    # pack and load
    for name in ("predict.gds_count", "predict.role_build",
                 "serve.snapshot_build", "serve.snapshot_encode",
                 "serve.snapshot_write", "serve.snapshot_decode",
                 "serve.service_init"):
        put(name + "_ms", ms(sum(durations(P, name))), "ms")

    # request path, in-process
    handle = [d for n, d, _, req in Q if n == "serve.handle" and req in read_ids]
    put("serve.handle_us_p50", us(p50(handle)), "us")
    put("serve.handle_us_p99", us(R.pct(handle, 99) if handle else 0), "us")
    for name in ("serve.parse", "serve.cache_get", "serve.cache_put",
                 "serve.render", "predict.score"):
        put(name + "_us", us(p50(durations(Q, name))), "us")
    apply_ns = durations(Q, "serve.update_apply")
    rebuild_ns = [d for n, d, _, req in Q if n == "predict.rebuild" and req]
    put("serve.update_apply_ms", ms(p50(apply_ns)), "ms")
    put("predict.rebuild_ms", ms(p50(rebuild_ns)), "ms")
    put("serve.edge_score_ms", ms(p50(durations(Q, "serve.edge_score"))), "ms")
    resub = counter(req_doc["report"], "perfbench.resubgraphs")
    put("motif.resubgraphs_per_update", resub / len(apply_ns) if apply_ns
        else 0.0, "count")

    # request path, live daemon
    stats = sv["stats"]
    mets = sv["metrics"]
    hits = sum(s.get("cache_hits", 0) for s in stats)
    misses = sum(s.get("cache_misses", 0) for s in stats)
    put("serve.cache_hit_share", hits / (hits + misses) if hits + misses else 0,
        "share")
    qkey = 'lamo_serve_queue_us_%s{window="lifetime"}'
    put("serve.queue_us_p50", p50([x.get(qkey % "p50", 0) for x in mets]), "us")
    put("serve.queue_us_p99", max(x.get(qkey % "p99", 0) for x in mets), "us")
    applied = sum(x.get("lamo_update_applied_total", 0) for x in mets)
    evicted = sum(x.get("lamo_update_cache_evicted_total", 0) for x in mets)
    put("serve.cache_evicted_per_update", evicted / applied if applied else 0,
        "count")
    backend_rtt = sv.get("backend_rtt_us", sv["rtt_us"])
    hop = sv["rtt_us"] - backend_rtt
    transport = backend_rtt - us(p50(handle))
    put("serve.transport_us", transport, "us")
    put("router.hop_us", hop, "us")
    rm = sv.get("router_metrics", {})
    rreq = rm.get("lamo_router_requests_total", 0)
    put("router.backend_requests_per_request",
        rm.get("lamo_router_backend_requests_total", 0) / rreq if rreq else 0,
        "count")
    put("router.retries", rm.get("lamo_router_retries_total", 0), "count")

    # client side, from the untraced run
    nominal = res["nominal"]
    late = [r["send"] - r["due"] for r in nominal]
    put("client.lateness_us_p99", R.pct(late, 99), "us")
    per_phase = {}
    for r in nominal:
        if r["ok"] and r["line"].split()[0] in R.READ_VERBS:
            per_phase.setdefault(r["phase"], []).append(R.latency_us(r))
    put("client.read_p99_us",
        statistics.median(R.pct(v, 99) for v in per_phase.values()), "us")
    put("client.read_p50_delayed_ack_us", sv["delayed_ack_p50_us"], "us")
    upd = [(r["phase"], r["send"], r["recv"]) for r in nominal
           if r["line"].split()[0] in ("ADDEDGE", "DELEDGE") and r["recv"]]
    over, clear = [], []
    for r in nominal:
        if r["line"].split()[0] not in R.READ_VERBS or not r["ok"]:
            continue
        hit = any(p == r["phase"] and r["due"] < e and r["recv"] > s
                  for p, s, e in upd)
        (over if hit else clear).append(R.latency_us(r))
    put("serve.read_stall_us", R.pct(over, 99) - R.pct(clear, 99)
        if over and clear else 0.0, "us")

    # What the spans explain of each end-to-end number.
    mine_parts = [t for t in P if t[0].startswith("motif.")]
    explained = sum(t[2] for t in mine_parts) + \
        sum(durations(P, "io.motif_write")) + durations(P, "io.parse")[0]
    put("build.mine_unexplained_share",
        (m["mine_s"] - explained / 1e9) / m["mine_s"], "share")
    put("serve.read_unexplained_us",
        m["read_p50_us"] - us(p50(handle)) - transport - hop, "us")
    put("update.unexplained_ms", m["update_p50_ms"] - ms(p50(apply_ns)) -
        ms(p50(rebuild_ns)) - hop / 1e3, "ms")

    check_counts(ctx, pipe_doc, reports, metrics, sv, resub, apply_ns)
    print_table(ctx, metrics)
    return metrics


def check_counts(ctx, pipe_doc, reports, metrics, sv, resub, apply_ns):
    """Deterministic counts: CLI == in-process, and equal across runs."""
    inproc = pipe_doc["report"]
    pairs = [("miner.candidate_sets", reports["mine"]),
             ("uniqueness.pattern_tests", reports["mine"]),
             ("lamofinder.so_cells", reports["label"]),
             ("lamofinder.cluster_merges", reports["label"])]
    for name, rep in pairs:
        a, b = counter(rep, name), counter(inproc, name)
        ctx.ledger.check(a == b, "count %s: CLI %d != in-process %d" %
                         (name, a, b))
    served = sv["metrics"][0].get("lamo_update_resubgraphs_total", 0)
    ctx.ledger.check(served == resub, "resubgraphs: served %d != in-process %d"
                     % (served, resub))
    state = os.path.join(ctx.state_dir, "counts.json")
    key = "%s:%s:%d:%s" % (ctx.workload, ctx.scale_name, ctx.seed, ctx.tree)
    known = {}
    if os.path.exists(state):
        with open(state) as fh:
            known = json.load(fh)
    now = {k: metrics[k]["value"] for k in EXACT_COUNTS}
    now["contention"] = metrics["ontology.st_lock_contention"]["value"]
    if key in known:
        before = known[key]
        for k in EXACT_COUNTS:
            ctx.ledger.check(before[k] == now[k], "count %s changed between "
                             "runs of one seed: %s -> %s" % (k, before[k], now[k]))
        seen = before.get("contention_seen", [before["contention"]])
        now["contention_seen"] = seen + [now["contention"]]
        metrics["ontology.st_lock_contention_spread"] = {
            "value": float(max(now["contention_seen"]) -
                           min(now["contention_seen"])), "unit": "count"}
    known[key] = now
    os.makedirs(ctx.state_dir, exist_ok=True)
    with open(state, "w") as fh:
        json.dump(known, fh)
    metrics.setdefault("ontology.st_lock_contention_spread",
                       {"value": 0.0, "unit": "count"})


def print_table(ctx, metrics):
    lines = ["layer self time and calls (%s, seed %d):" % (ctx.workload,
                                                         ctx.seed)]
    for layer in LAYERS:
        lines.append("  %-9s %12.3f ms %9d calls" % (
            layer, metrics[layer + ".self_ms"]["value"],
            metrics[layer + ".calls"]["value"]))
    for k in ("build.mine_unexplained_share", "serve.read_unexplained_us",
              "update.unexplained_ms", "trace.pipeline_overhead_share",
              "trace.read_overhead_share"):
        lines.append("  %-30s %12.4f %s" % (k, metrics[k]["value"],
                                            metrics[k]["unit"]))
    print("\n".join(lines), flush=True)
