#!/usr/bin/env python3
"""The repo benchmark: builds lamo from source and runs one named workload.

    python3 perfbench/run.py --workload build --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, a table

Run it from the root of a checkout. Workloads (perfbench/README.md has the
full definitions):

  build          paper-scale offline pipeline: generate -> mine -> label -> pack
  serve_read     open-loop, Zipf-skewed cached reads against one lamo serve
  cluster_mixed  uniform routed reads beside a DELEDGE/ADDEDGE trickle through
                 lamo router --mode sharded --backends 2

Every run prints all its end-to-end measurements on stderr. With --trace 0
the result carries the bounded end-to-end metrics; --trace 1 replays the
workload with run reports on and the in-process layer driver, and carries
the per-layer metrics. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
STATE_DIR = os.path.join(BUILD_ROOT, "perfbench-state")
TARGETS = ["lamo", "lamo_report_check", "perfbench_loadgen", "perfbench_layers"]
WORKLOADS = ["build", "serve_read", "cluster_mixed"]
THREADS = 2
ROUTER_THREADS = 1
# The interactome every workload runs on: `lamo generate --proteins 4141
# --seed 1`. Networks from different generator seeds differ too much to
# compare runs (packed snapshots of 3.3-7.4 MB, update costs up to 8x), so
# --seed drives everything else: request streams, key popularity, update
# pairs and checked samples.
DATASET_SEED = 1


def ladder(lo, hi):
    rungs = [float(lo)]
    while rungs[-1] * 1.08 <= hi:
        rungs.append(round(rungs[-1] * 1.08, -2))
    return rungs


# Per-scale knobs. "full" is the benchmark; "tiny" is the smoke test's scale.
SCALES = {
    "full": {
        "proteins": 4141, "min_freq": 40, "generate_reps": 7, "pack_reps": 3,
        "launch_reps": 3, "check_proteins": 3,
        "warmup_s": 1.0, "ladder_step_s": 0.2,
        "nominal": {"build": 20000, "serve_read": 20000, "cluster_mixed": 4000},
        # Read ladder: geometric rungs 8% apart.
        "ladder": {"build": ladder(20000, 90000),
                   "serve_read": ladder(20000, 90000),
                   "cluster_mixed": ladder(4000, 40000)},
        "tail_pairs": 40, "tail_edges": 150, "pair_rate": 0.5,
        "edge_share": 0.01, "sample_keys": 400,
    },
    "tiny": {
        "proteins": 200, "min_freq": 8, "generate_reps": 2, "pack_reps": 1,
        "launch_reps": 1, "check_proteins": 2,
        "warmup_s": 0.2, "ladder_step_s": 0.3,
        "nominal": {"build": 500, "serve_read": 500, "cluster_mixed": 300},
        "ladder": {"build": [500], "serve_read": [500], "cluster_mixed": [300]},
        "tail_pairs": 2, "tail_edges": 4, "pair_rate": 4.0,
        "edge_share": 0.02, "sample_keys": 40,
    },
}
# A ladder rung passes when 90% of its requests (failures count as misses)
# finish within LIMIT_US of their due time and the median of its last tenth
# does too (no growing backlog). The limit and the percentile sit above the
# few-ms stalls of a shared VM host, so a rung fails on saturation rather
# than on a stall.
LIMIT_US = 25000.0
# The nominal phase is this many back-to-back schedules on fresh connections.
SUBPHASES = 8
READ_VERBS = ("PREDICT", "MOTIFS", "TERMINFO")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources next to perfbench/ (src/ missing)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")) and \
            not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                    *TARGETS], check=True, stdout=subprocess.DEVNULL)


def tool(name):
    sub = "tools" if name.startswith("lamo") else ""
    return os.path.join(BUILD_DIR, sub, name)


def tree_hash():
    """Content hash of the program sources: the checkout is not a git repo."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Host-drift record (never rescales a metric)


def calibrate():
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1000.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# Processes


class Ledger:
    """Counts attempted and failed operations for error accounting."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what, n=1, bad=None):
        self.attempted += n
        fails = (0 if ok else n) if bad is None else bad
        self.failed += fails
        if fails:
            log("CHECK FAILED: " + what)


def run_cli(args, cwd):
    """Runs one lamo CLI stage; returns (wall seconds, rusage, stdout text)."""
    out_path = os.path.join(cwd, "cli.out")
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        text = fh.read()
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (" ".join(args[:2]), proc.returncode))
    return wall, usage, text


def vm_hwm_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid):
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


def request(port, line, timeout=10.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
            text = data.decode()
            if text.startswith("ERR") and text.endswith("\n"):
                return text
            if text.startswith("OK "):
                head, _, rest = text.partition("\n")
                if rest.count("\n") >= int(head.split()[1]):
                    return text
        return data.decode()


class Daemon:
    """A lamo serve / lamo router process on an ephemeral port."""

    def __init__(self, args, cwd, name, env=None):
        self.log_path = os.path.join(cwd, name + ".log")
        self.t0 = time.perf_counter()
        self.logf = open(self.log_path, "w")
        self.proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=self.logf,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.port = None

    def wait_ready(self, banner, ready_prefix, timeout=60.0):
        """Returns seconds from launch to the first ready HEALTH answer."""
        deadline = time.perf_counter() + timeout
        needle = banner + ": listening on 127.0.0.1:"
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("daemon did not start: " + self.log_path)
            with open(self.log_path) as fh:
                for line in fh:
                    if line.startswith(needle):
                        self.port = int(line[len(needle):].split()[0])
                        break
            if self.port is None:
                time.sleep(0.001)
        while True:
            try:
                reply = request(self.port, "HEALTH", timeout=5.0)
                if reply.startswith("OK") and ready_prefix in reply:
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("daemon never became ready")
            time.sleep(0.001)

    def peak_rss_mb(self):
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return max(vm_hwm_mb(p) for p in pids)

    def stop(self):
        """SIGTERM, then waits for the process and for every process left in
        its group (the router's backends)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.perf_counter() + 10
        while True:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            if time.perf_counter() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
                break
            time.sleep(0.01)
        self.logf.close()
        return self.proc.returncode


# ---------------------------------------------------------------------------
# Inputs


def read_edges(path):
    edges = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 2 and not line.startswith("#"):
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    continue
                edges.append((min(u, v), max(u, v)))
    return edges


def read_terms(path):
    names = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("id:"):
                names.append(line.split(":", 1)[1].strip())
    return names


class Mix:
    """Seeded request-line generator for one workload."""

    def __init__(self, rng, workload, proteins, terms, edges, edge_share):
        self.rng = rng
        self.workload = workload
        self.proteins = list(range(proteins))
        rng.shuffle(self.proteins)
        self.terms = terms
        self.edge_share = edge_share
        self.zipf_cdf = []
        total = 0.0
        for i in range(proteins):
            total += 1.0 / (i + 1) ** 1.0
            self.zipf_cdf.append(total)
        edge_set = set(edges)
        self.degree = [0] * proteins
        for u, v in edges:
            self.degree[u] += 1
            self.degree[v] += 1
        self.non_edges = []
        while len(self.non_edges) < 2000:
            u, v = rng.randrange(proteins), rng.randrange(proteins)
            if u != v and (min(u, v), max(u, v)) not in edge_set:
                self.non_edges.append((u, v))

    def edge_cost(self, pair):
        """Sort key for stratified sampling: update and edge-scoring work
        grows with the endpoints' neighbourhoods."""
        u, v = pair
        return (self.degree[u] + self.degree[v], pair)

    def protein(self):
        if self.workload == "cluster_mixed":
            return self.rng.choice(self.proteins)
        x = self.rng.random() * self.zipf_cdf[-1]
        return self.proteins[bisect.bisect_left(self.zipf_cdf, x)]

    def read(self):
        r = self.rng.random()
        p = self.protein()
        if self.workload == "cluster_mixed":
            if r < self.edge_share:
                u, v = self.rng.choice(self.non_edges)
                return "PREDICT_EDGE %d %d" % (u, v)
            if r < 0.40:
                return "PREDICT %d" % p
            if r < 0.70:
                return "PREDICT %d %d" % (p, self.rng.randint(1, 5))
            return "MOTIFS %d" % p
        if r < 0.40:
            return "PREDICT %d" % p
        if r < 0.60:
            return "PREDICT %d %d" % (p, self.rng.choice([1, 2, 4, 5]))
        if r < 0.90:
            return "MOTIFS %d" % p
        return "TERMINFO %s" % self.rng.choice(self.terms)


# ---------------------------------------------------------------------------
# Load generation


def run_schedule(ctx, port, items, name, closed=False, delayed_ack=False):
    """items: list of (due_s, conn, line). Returns per-item dicts."""
    sched = os.path.join(ctx.work, name + ".sched")
    out = os.path.join(ctx.work, name + ".out")
    with open(sched, "w") as fh:
        for due, conn, line in items:
            fh.write("%d %d %s\n" % (int(due * 1e6), conn, line))
    args = [tool("perfbench_loadgen"), "--port", str(port), "--schedule",
            sched, "--out", out]
    if closed:
        args.append("--closed")
    if delayed_ack:
        args.append("--delayed-ack")
    subprocess.run(args, check=True)
    results = []
    with open(out) as fh:
        for (due, conn, line), row in zip(items, fh):
            d, s, r, ok, payload = row.rstrip("\n").split(" ", 4)
            results.append({
                "line": line, "conn": conn, "due": int(d) / 1e3,
                "send": int(s) / 1e3, "recv": int(r) / 1e3 if int(r) >= 0 else None,
                "ok": ok == "1", "payload": payload.replace("\x1f", "\n"),
            })
    if len(results) != len(items):
        raise BenchError("load generator wrote %d of %d results" %
                         (len(results), len(items)))
    return results


def latency_us(r):
    return None if r["recv"] is None else r["recv"] - r["due"]


def read_p50(rows):
    """read_p50_us of a nominal phase: the second lowest of the sub-phase
    read p50s. A shared host sometimes stalls for seconds, backing up most
    of a run's sub-phases; a change to the program moves all of them."""
    per_phase = {}
    for r in rows:
        if r["ok"] and r["line"].split()[0] in READ_VERBS:
            per_phase.setdefault(r["phase"], []).append(latency_us(r))
    p50s = sorted(statistics.median(w) for w in per_phase.values())
    log("sub-phase read p50s (us): " + " ".join("%.1f" % v for v in p50s))
    return p50s[min(1, len(p50s) - 1)]


def pct(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(q / 100.0 * len(s) + 0.5)) - 1))
    return s[k]


def stratified(rng, population, key, k):
    """k items, one drawn from each of k equal strata of `population` sorted
    by `key`, in random order: every seed gets the same spread of costs."""
    ranked = sorted(population, key=key)
    picks = []
    for i in range(k):
        lo = i * len(ranked) // k
        hi = max(lo + 1, (i + 1) * len(ranked) // k)
        picks.append(ranked[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    return picks


def reads_at(rate, seconds, mix, conns):
    n = max(1, int(rate * seconds))
    return [(i / rate, i % conns, mix.read()) for i in range(n)]


# ---------------------------------------------------------------------------
# Pipeline


def pipeline(ctx, algo, shards=1, report=False):
    """generate -> mine -> label -> pack; returns stage metrics. With
    `report` each stage runs once with --report (the traced replay)."""
    sc = dict(ctx.scale)
    if report:
        sc.update(generate_reps=1, pack_reps=1)
    L = tool("lamo")
    w = ctx.work
    gen_walls = []
    for _ in range(sc["generate_reps"]):
        wall, _, _ = run_cli([L, "generate", "--proteins", str(sc["proteins"]),
                              "--seed", str(DATASET_SEED), "--out", "run"], w)
        gen_walls.append(wall)
    rss = []
    cpu = []

    def stage(name, args, reps=1):
        walls = []
        cpus = []
        for rep in range(reps):
            extra = []
            if report:
                extra = ["--report", name + ".report.json"]
            wall, usage, _ = run_cli([L, name] + args + extra, w)
            walls.append(wall)
            cpus.append(usage.ru_utime + usage.ru_stime)
            rss.append(usage.ru_maxrss / 1024.0)
            if rep == 0:
                ctx.busy[name] = (cpus[0], wall)
        ctx.ledger.check(True, name, n=reps)
        cpu.append(statistics.median(cpus))
        return statistics.median(walls)

    common = ["--graph", "run.graph.txt", "--threads", str(THREADS)]
    mine_args = common + ["--min-freq", str(sc["min_freq"]), "--out",
                          "run.motifs.txt"]
    if algo == "esu":
        mine_args += ["--algo", "esu"]
    mine_s = stage("mine", mine_args)
    ann = ["--obo", "run.obo", "--annotations", "run.annotations.tsv"]
    label_s = stage("label", common + ann + ["--motifs", "run.motifs.txt",
                                             "--out", "run.labeled.txt"])
    pack_args = common + ann + ["--labeled", "run.labeled.txt", "--out",
                                "run.lamosnap"]
    if shards > 1:
        pack_args += ["--shards", str(shards)]
    pack_s = stage("pack", pack_args, sc["pack_reps"])
    return {"generate_s": statistics.median(gen_walls), "mine_s": mine_s,
            "label_s": label_s, "pack_s": pack_s, "cpu_s": sum(cpu),
            "rss_mb": max(rss)}


# ---------------------------------------------------------------------------
# Serving phases


def launch(ctx, kind, report=False):
    L = tool("lamo")
    env = None
    if kind == "serve":
        args = [L, "serve", "--snapshot", "run.lamosnap", "--port", "0",
                "--threads", str(THREADS)]
        banner, ready = "lamo serve", "ready proteins"
    else:
        args = [L, "router", "--snapshot", "run.lamosnap", "--backends", "2",
                "--mode", "sharded", "--port", "0"]
        banner, ready = "lamo router", "ready backends=2/2"
        # The router and the backends it forks size their pools from
        # LAMO_THREADS: one worker each, so the two backends do the request
        # work on 2 threads, as `lamo serve --threads 2` does.
        env = dict(os.environ, LAMO_THREADS=str(ROUTER_THREADS))
    if report:
        args += ["--report", kind + ".report.json"]
    d = Daemon(args, ctx.work, kind, env)
    try:
        setup = d.wait_ready(banner, ready)
    except BaseException:
        d.stop()
        raise
    ctx.daemons.append(d)
    return d, setup


def rung_passes(ctx, port, pool, rung):
    """One ladder rung: reads only at `rung` per second, both connections.
    `pool` is a list of read lines, reused from rung to rung."""
    n = int(rung * ctx.scale["ladder_step_s"])
    sched = os.path.join(ctx.work, "rung.sched")
    out = os.path.join(ctx.work, "rung.out")
    with open(sched, "w") as fh:
        fh.write("".join("%d %d %s\n" % (i * 1e6 / rung, i % 2,
                                         pool[i % len(pool)])
                         for i in range(n)))
    subprocess.run([tool("perfbench_loadgen"), "--port", str(port),
                    "--schedule", sched, "--out", out, "--no-payload"],
                   check=True)
    lats = []
    with open(out) as fh:
        for row in fh:
            due, _, recv, ok, _ = row.split(" ", 4)
            lats.append((int(recv) - int(due)) / 1e3
                        if ok == "1" and int(recv) >= 0 else float("inf"))
    ctx.ledger.check(True, "ladder", n=n,
                     bad=sum(1 for x in lats if x == float("inf")))
    time.sleep(0.05)
    return pct(lats, 90) <= LIMIT_US and \
        statistics.median(lats[-max(1, len(lats) // 10):]) <= LIMIT_US


def serve_phase(ctx, kind, mix, edges, pair_rng, trickle):
    """Warm-up, nominal-rate reads, ladder, then update/edge samples."""
    sc = ctx.scale
    wl = ctx.workload
    setups = []
    for rep in range(sc["launch_reps"]):
        d, setup = launch(ctx, kind)
        setups.append(setup)
        if rep + 1 < sc["launch_reps"]:
            ctx.daemons.remove(d)
            d.stop()
    port = d.port
    res = {"serve_setup_s": statistics.median(setups)}

    # Warm-up: fills the response cache, untimed.
    res["warmup_items"] = reads_at(sc["nominal"][wl], sc["warmup_s"], mix, 2)
    run_schedule(ctx, port, res["warmup_items"], "warmup")

    # Nominal rate, with the update trickle beside it on cluster_mixed. The
    # phase runs as SUBPHASES back-to-back schedules, each on fresh
    # connections, so one connection's state does not decide the run.
    rate = sc["nominal"][wl]
    sub_s = ctx.seconds / SUBPHASES
    # Trickle pairs sit in evenly spaced sub-phases; the update stalls they
    # cause show in client.read_p99_us and serve.read_stall_us, and the
    # median of sub-phase p90s stays a read-path number.
    n_trickle = max(1, int(round(ctx.seconds * sc["pair_rate"])))
    trickle_pairs = stratified(pair_rng, edges, mix.edge_cost,
                               n_trickle) if trickle else []
    slot = {(2 * j + 1) * SUBPHASES // (2 * n_trickle): pair
            for j, pair in enumerate(trickle_pairs)}
    pairs = []
    res["nominal_items"] = []
    nominal = []
    for k in range(SUBPHASES):
        items = reads_at(rate, sub_s, mix, 1 if trickle else 2)
        if k in slot:
            u, v = slot[k]
            pairs.append((u, v))
            items.append((0.25 * sub_s, 1, "DELEDGE %d %d" % (u, v)))
            items.append((0.55 * sub_s, 1, "ADDEDGE %d %d" % (u, v)))
            items.sort(key=lambda it: it[0])
        res["nominal_items"].append(items)
        rows = run_schedule(ctx, port, items, "nominal-%d" % k)
        for r in rows:
            r["phase"] = k
        nominal += rows

    mark(ctx, "nominal")
    # Ladder: reads only, fixed rungs, stop at the first rung that misses.
    max_rps = 0.0
    pool = [mix.read() for _ in range(20000)]
    for rung in sc["ladder"][wl]:
        if not rung_passes(ctx, port, pool, rung) and \
                not rung_passes(ctx, port, pool, rung):
            break
        max_rps = float(rung)

    mark(ctx, "ladder")
    # Tail: update pairs, and PREDICT_EDGE samples where the nominal phase
    # had none (build, serve_read), closed loop on one connection.
    items = []
    for u, v in stratified(pair_rng, edges, mix.edge_cost, sc["tail_pairs"]):
        pairs.append((u, v))
        items.append((0, 0, "DELEDGE %d %d" % (u, v)))
        items.append((0, 0, "ADDEDGE %d %d" % (u, v)))
    if not trickle:
        for u, v in stratified(pair_rng, mix.non_edges, mix.edge_cost,
                               sc["tail_edges"]):
            items.append((0, 0, "PREDICT_EDGE %d %d" % (u, v)))
    res["tail_items"] = items
    tail = run_schedule(ctx, port, items, "tail", closed=True)

    res["nominal"] = nominal
    res["tail"] = tail
    res["pairs"] = pairs
    res["max_rps"] = max_rps
    res["daemon"] = d
    return res


def summarize_serving(ctx, res):
    rows = res["nominal"] + res["tail"]
    bad = [r for r in rows if not r["ok"]]
    ctx.ledger.check(True, "requests", n=len(rows), bad=len(bad))
    for r in bad[:3]:
        log("failed request: %r -> %r" % (r["line"], r["payload"][:120]))
    reads = [r for r in res["nominal"] if r["ok"] and
             r["line"].split()[0] in READ_VERBS]
    updates = [r for r in rows if r["ok"] and
               r["line"].split()[0] in ("ADDEDGE", "DELEDGE")]
    edges = [r for r in rows if r["ok"] and r["line"].startswith("PREDICT_EDGE")]
    if not reads or not updates or not edges:
        raise BenchError("a serving phase produced no samples")
    per_phase = {}
    for r in reads:
        per_phase.setdefault(r["phase"], []).append(latency_us(r))
    upd_ms = [(r["recv"] - r["send"]) / 1e3 for r in updates]
    edge_ms = [(r["recv"] - r["send"]) / 1e3 for r in edges]
    m = {
        "read_p50_us": read_p50(res["nominal"]),
        "read_p90_us": statistics.median(pct(w, 90) for w in per_phase.values()),
        "read_max_rps": res["max_rps"],
        "update_p50_ms": statistics.median(upd_ms),
        "update_p90_ms": pct(upd_ms, 90),
        "edge_p50_ms": statistics.median(edge_ms),
    }
    ctx.samples.update({"reads": len(reads), "updates": len(upd_ms),
                        "edges": len(edge_ms)})
    return m, reads


# ---------------------------------------------------------------------------
# Answer checks


def expected_answers(ctx, snapshot, lines, deltas=None):
    """Answers of `lamo serve --stdin` for `lines` (one per line)."""
    L = tool("lamo")
    snap = snapshot
    if deltas is not None:
        delta_path = os.path.join(ctx.work, "applied.deltas")
        with open(delta_path, "w") as fh:
            fh.write("".join(d + "\n" for d in deltas))
        run_cli([L, "pack", "--graph", "run.graph.txt", "--obo", "run.obo",
                 "--annotations", "run.annotations.tsv", "--labeled",
                 "run.labeled.txt", "--threads", str(THREADS),
                 "--apply-deltas", "applied.deltas", "--out",
                 "check.lamosnap"], ctx.work)
        snap = "check.lamosnap"
    with open(os.path.join(ctx.work, "check.in"), "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    with open(os.path.join(ctx.work, "check.in")) as fin:
        out = subprocess.run([L, "serve", "--snapshot", snap, "--stdin",
                              "--threads", str(THREADS)], cwd=ctx.work,
                             stdin=fin, capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("serve --stdin exited %d" % out.returncode)
    answers = []
    text = out.stdout.split("\n")
    i = 0
    while i < len(text) and len(answers) < len(lines):
        head = text[i]
        if head.startswith("OK "):
            n = int(head.split()[1])
            answers.append("\n".join(text[i + 1:i + 1 + n]))
            i += 1 + n
        else:
            answers.append(head)
            i += 1
    return answers


def check_offline_predict(ctx, served, proteins):
    """Served PREDICT must byte-match offline `lamo predict`."""
    L = tool("lamo")
    for p in proteins:
        _, _, offline = run_cli(
            [L, "predict", "--graph", "run.graph.txt", "--obo", "run.obo",
             "--annotations", "run.annotations.tsv", "--labeled",
             "run.labeled.txt", "--protein", str(p), "--threads",
             str(THREADS)], ctx.work)
        ctx.ledger.check(offline.rstrip("\n") == served[p],
                         "PREDICT %d differs from offline predict" % p)


def check_reads(ctx, reads):
    """Every served read must equal the serve --stdin answer of its key."""
    keys = sorted({r["line"] for r in reads})
    answers = dict(zip(keys, expected_answers(ctx, "run.lamosnap", keys)))
    bad = sum(1 for r in reads if r["payload"] != answers[r["line"]])
    ctx.ledger.check(True, "read answers match serve --stdin", n=len(reads),
                     bad=bad)


def check_after_updates(ctx, port, pairs):
    """Live answers after the run match a repack with --apply-deltas."""
    rng = random.Random(ctx.seed * 7 + 3)
    lines = sorted({"PREDICT %d" % rng.randrange(ctx.scale["proteins"])
                    for _ in range(ctx.scale["sample_keys"])} |
                   {"MOTIFS %d" % rng.randrange(ctx.scale["proteins"])
                    for _ in range(ctx.scale["sample_keys"])})
    deltas = []
    for u, v in pairs:
        deltas += ["DELEDGE %d %d" % (u, v), "ADDEDGE %d %d" % (u, v)]
    live = run_schedule(ctx, port, [(0, 0, line) for line in lines], "after",
                        closed=True)
    expected = expected_answers(ctx, "run.lamosnap", lines, deltas=deltas)
    bad = sum(1 for r, e in zip(live, expected) if not r["ok"] or r["payload"] != e)
    ctx.ledger.check(True, "answers after updates match pack --apply-deltas",
                     n=len(lines), bad=bad)


# ---------------------------------------------------------------------------
# Workloads


class Context:
    def __init__(self, args, scale):
        self.workload = args.workload
        self.scale_name = args.scale
        self.state_dir = STATE_DIR
        self.tree = tree_hash()
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = scale
        self.ledger = Ledger()
        self.daemons = []
        self.busy = {}
        self.samples = {}
        self.phases = {}
        self.t0 = time.perf_counter()
        self.work = os.path.join(BUILD_ROOT, "perfbench-work",
                                 "%s-%d-%d" % (self.workload, self.seed,
                                               os.getpid()))
        os.makedirs(self.work, exist_ok=True)


def mark(ctx, phase):
    """Records how long the run has taken up to the end of `phase`."""
    ctx.phases[phase] = round(time.perf_counter() - ctx.t0, 2)


def run_workload(ctx):
    wl = ctx.workload
    sc = ctx.scale
    algo = "levelwise" if wl == "build" else "esu"
    pipe = pipeline(ctx, algo, shards=2 if wl == "cluster_mixed" else 1)
    mark(ctx, "pipeline")
    edges = read_edges(os.path.join(ctx.work, "run.graph.txt"))
    terms = read_terms(os.path.join(ctx.work, "run.obo"))
    mix_rng = random.Random(ctx.seed * 1000003 + WORKLOADS.index(wl))
    mix = Mix(mix_rng, wl, sc["proteins"], terms, edges, sc["edge_share"])
    pair_rng = random.Random(ctx.seed * 7919 + 11)
    kind = "router" if wl == "cluster_mixed" else "serve"
    res = serve_phase(ctx, kind, mix, edges, pair_rng,
                      trickle=(wl == "cluster_mixed"))
    d = res["daemon"]
    m, reads = summarize_serving(ctx, res)

    mark(ctx, "serving")
    # Answer checks.
    if wl == "cluster_mixed":
        check_after_updates(ctx, d.port, res["pairs"])
    else:
        check_reads(ctx, reads)
        rng = random.Random(ctx.seed * 31 + 1)
        sample = [rng.randrange(sc["proteins"]) for _ in range(sc["check_proteins"])]
        live = run_schedule(ctx, d.port, [(0, 0, "PREDICT %d" % p) for p in sample],
                            "sample", closed=True)
        check_offline_predict(ctx, {p: r["payload"] for p, r in zip(sample, live)},
                              sample)
    mark(ctx, "checks")
    rss = d.peak_rss_mb()
    ctx.daemons.remove(d)
    code = d.stop()
    ctx.ledger.check(code == 0, "daemon exit code %s" % code)

    setup = pipe["generate_s"] if wl == "build" else res["serve_setup_s"]
    m.update({
        "setup_s": setup,
        "mine_s": pipe["mine_s"],
        "label_s": pipe["label_s"],
        "pack_s": pipe["pack_s"],
        "pipeline_cpu_s": pipe["cpu_s"],
        "peak_rss_mb": max(rss, pipe["rss_mb"]) if wl == "build" else rss,
    })
    res["pipe"] = pipe
    res["kind"] = kind
    return m, res


UNITS = {
    "setup_s": "s", "mine_s": "s", "label_s": "s", "pack_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB", "read_p50_us": "us", "read_p90_us": "us",
    "read_max_rps": "1/s", "update_p50_ms": "ms", "update_p90_ms": "ms",
    "edge_p50_ms": "ms", "ok_share": "share",
}
# The bounded end-to-end metrics: those whose run-to-run spread on a shared
# 4-vCPU VM stays well inside their bound. The medians of the CPU-bound
# stage and request times moved 14-38% between two series of the same code
# with host drift, and the read p90 follows host stalls; they are printed on
# stderr every run and reported per-layer (pipeline.*, client.*) by traced
# runs.
END_TO_END = ["setup_s", "peak_rss_mb", "read_p50_us", "ok_share"]
UNBOUNDED = {"mine_s": "pipeline.mine_s", "label_s": "pipeline.label_s",
             "pack_s": "pipeline.pack_s", "pipeline_cpu_s": "pipeline.cpu_s",
             "read_p90_us": "client.read_p90_us",
             "read_max_rps": "client.read_max_rps",
             "update_p50_ms": "client.update_p50_ms",
             "update_p90_ms": "client.update_p90_ms",
             "edge_p50_ms": "client.edge_p50_ms"}


def main():
    # SIGTERM unwinds like an error, so every started daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("--workload or --all is required")
    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    result = run_one(args)
    if result is None:
        return 1
    del result["measured"]
    print(json.dumps(result))
    return 0


def run_one(args):
    scale = SCALES[args.scale]
    ctx = Context(args, scale)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "tree": ctx.tree, "nproc": os.cpu_count(),
              "cpu": cpu_model(), "loadavg_start": os.getloadavg(),
              "calib_start_ms": calibrate()}
    try:
        m, res = run_workload(ctx)
        layers = None
        if ctx.trace:
            sys.dont_write_bytecode = True
            import layers as layer_mod  # perfbench/layers.py
            layers = layer_mod.traced_metrics(sys.modules[__name__], ctx, m, res)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("run failed: %s" % e)
        return None
    finally:
        for d in ctx.daemons:
            d.stop()
        shutil.rmtree(ctx.work, ignore_errors=True)
    record.update({"calib_end_ms": calibrate(),
                   "loadavg_end": os.getloadavg(), "samples": ctx.samples,
                   "phases_s": ctx.phases})
    log("host: " + json.dumps(record))
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(os.path.join(STATE_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    led = ctx.ledger
    m["ok_share"] = (led.attempted - led.failed) / led.attempted
    for k, v in sorted(m.items()):
        log("  %-34s %14.4f %s" % (k, v, UNITS[k]))
    if ctx.trace:
        metrics = layers
        for k, name in UNBOUNDED.items():
            metrics[name] = {"value": float(m[k]), "unit": UNITS[k]}
        metrics["host.calib_ms"] = {"value": (record["calib_start_ms"] +
                                              record["calib_end_ms"]) / 2,
                                    "unit": "ms"}
        for k, v in sorted(metrics.items()):
            log("  %-34s %14.4f %s" % (k, v["value"], v["unit"]))
    else:
        metrics = {k: {"value": float(m[k]), "unit": UNITS[k]}
                   for k in END_TO_END}
    return {"correct": led.failed == 0, "attempted": led.attempted,
            "failed": led.failed, "metrics": metrics, "measured": m}


def run_all(args):
    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    rows = {}
    ok = True
    for wl in WORKLOADS:
        args.workload = wl
        result = run_one(args)
        if result is None:
            ok = False
            continue
        ok = ok and result["correct"]
        rows[wl] = {k: {"value": v, "unit": UNITS[k]}
                    for k, v in result["measured"].items()}
    names = sorted({k for r in rows.values() for k in r})
    print("%-34s" % "metric" + "".join("%16s" % w for w in rows) + "  unit")
    for k in names:
        unit = next(r[k]["unit"] for r in rows.values() if k in r)
        print("%-34s" % k + "".join("%16.4f" % rows[w][k]["value"] for w in rows)
              + "  " + unit)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
