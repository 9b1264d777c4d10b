#!/usr/bin/env python3
"""The spgcmp benchmark: build spgbench, run one workload, check, report.

  python3 perfbench/run.py --workload paper_grid|paper_campaign|serve_replay
                           [--seed 42] [--seconds 30] [--trace 0|1]
                           [--threads N] [--clients N]
                           [--apps N --apps150 N --step N --step150 N]
                           [--cold N --hot N]

Run from anywhere inside a checkout of the repository.  The first run
configures and builds perfbench/ (the spgcmp library plus the spgbench
program) under $CARGO_TARGET_DIR, or .bench_build at the repository root;
later runs only rebuild what changed.  This script owns every default and
range check; spgbench requires each flag and validates none.

With --trace 0 the workload runs untraced passes for --seconds and the
end-to-end metrics of BENCHMARK.json are reported.  With --trace 1 untraced
and traced passes alternate; the traces are folded (perfbench/fold.py)
with spgbench's own timings into the per-layer metrics.  Either way the
outputs are checked, a readable table goes to stdout, a JSON document with
every number and its provenance goes to <build>/results/, and the last line
of stdout is the result:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit status is 0 when every check passed, 1 when one failed or the run
broke, 2 on a usage or build error (no result line then).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fold  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "paper_campaign", "serve_replay")
GRID_SOLVERS = ("random", "greedy", "dpa2d", "dpa1d", "dpa2d1d")
SERVE_SOLVERS = ("peft", "greedy-refine", "dpa2d1d-refine", "anneal")
SWEEPS = ("fig8_streamit_4x4", "fig9_streamit_6x6", "fig10_random_n50_4x4",
          "fig11_random_n50_6x6", "fig12_random_n150_4x4", "fig13_random_n150_6x6")
PAPER_SEED = 42
DEADLINE_S = 170  # a run must end within 180 s of its start


class Usage(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build --

def build():
    """Configure (once) and build spgbench; returns (target dir, binary)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Usage(f"no spgcmp source tree (CMakeLists.txt, src/) at {ROOT}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    bdir = os.path.join(target, "spgbench")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr,
                   check=True)
    return target, os.path.join(bdir, "spgbench")


# ----------------------------------------------------------------- stats --

def stat(values):
    """Median and quartiles of a list of numbers."""
    v = sorted(values)
    if len(v) == 1:
        return {"median": v[0], "q1": v[0], "q3": v[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


def one(value, n=1):
    return {"median": value, "q1": None, "q3": None, "n": n}


def fmt(x):
    if x is None:
        return "-"
    if float(x).is_integer() and abs(x) < 1e15:
        return str(int(x))
    return fold.fmt(x, 4)


# ---------------------------------------------------------------- checks --

def knob_key(knobs):
    return ",".join(f"{k}={knobs[k]}" for k in ("apps", "apps150", "step", "step150"))


def recorded_digests(path, knobs):
    """Digests recorded from the seed commit for these knobs, or None."""
    with open(path) as f:
        return json.load(f)["knobs"].get(knob_key(knobs))


def check_grid(raw, args, expected, notes):
    """Byte checks of the grid workloads; returns failed operations."""
    data = raw["data"]
    knobs = data["knobs"]
    per_report = data["report_instances"]
    if expected is None:
        if args.workload == "paper_grid":
            notes.append(f"digest check skipped: no digests recorded for "
                         f"{knob_key(knobs)}; passes were only checked against "
                         f"each other")
            return 0
        expected = data["oneshot_digests"]
        notes.append("no recorded digests for these knobs: merged bytes were "
                     "checked against a one-shot run")
    failed = 0
    for i, p in enumerate(data["passes"]):
        bad = sorted(n for n, hex_ in expected.items() if p["digests"].get(n) != hex_)
        if bad:
            notes.append(f"pass {i}: report bytes differ from the expected "
                         f"digests: {', '.join(bad)}")
            instances = p.get("instances", p["ops"])
            failed += min(instances, sum(per_report[n] for n in bad))
    return failed


# --------------------------------------------------------------- metrics --

def end_to_end(raw, workload):
    data = raw["data"]
    untraced = [p for p in data["passes"] if not p["traced"]]
    per_s = "run_s" if workload == "paper_campaign" else "wall_s"
    return {
        "setup_s": stat(data["setup_s"]),
        "wall_s": stat([p["wall_s"] for p in untraced]),
        "cpu_s": stat([p["cpu_s"] for p in untraced]),
        "peak_rss_mb": one(raw["peak_rss_mb"]),
        "ops_per_s": stat([p["ops"] / p[per_s] for p in untraced]),
    }


def serve_detail(raw):
    """Client-observed latency and throughput of both phases, untraced."""
    untraced = [p for p in raw["data"]["passes"] if not p["traced"]]
    out = {}
    for phase, key, wall in (("miss", "miss_us", "cold_wall_s"),
                             ("hit", "hit_us", "hot_wall_s")):
        samples = [x for p in untraced for x in p[key]]
        out[f"{phase}_p50_us"] = one(fold.percentile(samples, 0.50), len(samples))
        out[f"{phase}_p99_us"] = one(fold.percentile(samples, 0.99), len(samples))
        out[f"{phase}_rps"] = stat([len(p[key]) / p[wall] for p in untraced])
    return out


def solver_key(name):
    return name.lower().replace("+", "-")


def per_layer(raw, workload, threads, detail, spans):
    """Every per-layer metric; 0 where the workload does not reach a layer.
    `spans` are those of the first traced pass."""
    data = raw["data"]
    passes = data["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    tp = traced[0]
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m = {}

    # heuristics: the solve span keyed by its solver argument.
    solves = {}
    for s in by_name.get("solve", []):
        solves.setdefault(solver_key(s.args.get("solver", "?")), []).append(s.dur)
    infeasible = {solver_key(k): v for k, v in untraced[0]["infeasible_share"].items()}
    for name in GRID_SOLVERS + SERVE_SOLVERS:
        durs = solves.get(name, [])
        m[f"heuristics.{name}.solves"] = one(len(durs))
        m[f"heuristics.{name}.total_s"] = one(sum(durs) / 1e6, len(durs))
        m[f"heuristics.{name}.p50_ms"] = one(fold.percentile(durs, 0.50) / 1e3, len(durs))
        m[f"heuristics.{name}.p99_ms"] = one(fold.percentile(durs, 0.99) / 1e3, len(durs))
        m[f"heuristics.{name}.infeasible_share"] = one(infeasible.get(name, 0.0))

    # mapping: evaluator calls by path, summed over the pass's solves.
    c = untraced[0]["counters"]
    evals = {k: c.get(f"solve.evals.{k}", 0)
             for k in ("full", "placement", "incremental", "batch")}
    for k, v in evals.items():
        m[f"mapping.evals.{k}"] = one(v)
    total = sum(evals.values())
    m["mapping.fast_path_share"] = one((total - evals["full"]) / total if total else 0.0)

    # harness + thread pool.
    shards = by_name.get("campaign.shard", [])
    for sweep in SWEEPS:
        if workload == "paper_grid":
            v = statistics.median(p["sweep_wall_s"][sweep] for p in untraced)
        else:
            v = sum(s.dur for s in shards if s.args.get("sweep") == sweep) / 1e6
        m[f"harness.{sweep}.wall_s"] = one(v)
    inst = [s.dur for s in by_name.get("sweep.instance", [])]
    m["harness.instance.p50_ms"] = one(fold.percentile(inst, 0.50) / 1e3, len(inst))
    m["harness.instance.p99_ms"] = one(fold.percentile(inst, 0.99) / 1e3, len(inst))
    m["harness.instance.max_ms"] = one(max(inst, default=0) / 1e3, len(inst))
    busy = inst if inst else [s.dur for s in by_name.get("serve.request", [])]
    m["pool.busy_share"] = one(sum(busy) / 1e6 / (tp["wall_s"] * threads))

    # campaign: shard spans, barrier idle, persistence, merge.
    sd = [s.dur for s in shards]
    m["campaign.shard.p50_ms"] = one(fold.percentile(sd, 0.50) / 1e3, len(sd))
    m["campaign.shard.p99_ms"] = one(fold.percentile(sd, 0.99) / 1e3, len(sd))
    idle = 0.0
    for sh in shards:
        inside = sum(s.dur for s in by_name.get("sweep.instance", [])
                     if s.start >= sh.start and s.end <= sh.end + 1)
        idle += max(0, sh.dur * threads - inside)
    m["campaign.barrier_idle_s"] = one(idle / 1e6)
    m["campaign.persist_s"] = one(tp["run_s"] - sum(sd) / 1e6 if shards else 0.0)
    m["campaign.merge_s"] = (stat([p["merge_s"] for p in untraced])
                             if workload == "paper_campaign" else one(0.0))

    # serve: per-call timings of its public functions, its spans, hit share.
    calls = data.get("layer_calls", {})
    for k in ("parse_json_us", "parse_request_us", "canonical_key_us",
              "cache_lookup_us", "render_report_us", "render_ok_us"):
        v = calls.get(k, [])
        m[f"serve.{k}"] = one(fold.percentile(v, 0.50), len(v))
    req = by_name.get("serve.request", [])
    m["serve.request.p50_us"] = one(fold.percentile([s.dur for s in req], 0.50), len(req))
    m["serve.request.self_us"] = one(fold.percentile([s.self_us for s in req], 0.50), len(req))
    hits, requests = c.get("serve.hits", 0), c.get("serve.requests", 0)
    m["serve.hit_share"] = one(hits / requests if requests else 0.0)
    for k in ("miss_p50_us", "miss_p99_us", "miss_rps", "hit_p50_us",
              "hit_p99_us", "hit_rps"):
        m[f"serve.{k}"] = detail.get(k, one(0.0))

    # net: client latency minus the matching serve.request span (hot phase).
    m["net.overhead_us"] = net_overhead(tp, req)

    # util, obs.
    m["util.json_number_ns"] = one(calls.get("json_number_ns", 0.0),
                                   calls.get("json_number_values", 0))
    u = statistics.median(p["wall_s"] for p in untraced)
    t = statistics.median(p["wall_s"] for p in traced)
    m["obs.trace_overhead_share"] = one((t - u) / u)
    return m


def net_overhead(tp, requests):
    """p50 over hot requests of client latency minus its serve.request span.

    The engine starts requests in arrival order, so the k-th hot request by
    send time pairs with the k-th hot serve.request span by start time; a
    pair counts when the span lies inside the request's send/receive window.
    """
    send, recv = tp.get("hit_send_us"), tp.get("hit_recv_us")
    if not send:
        return one(0.0, 0)
    order = sorted(range(len(send)), key=lambda i: send[i])
    start = min(send)
    spans = sorted((s for s in requests if s.start >= start - 50),
                   key=lambda s: s.start)
    diffs = []
    for i, s in zip(order, spans):
        if s.start >= send[i] - 50 and s.end <= recv[i] + 50:
            diffs.append((recv[i] - send[i]) - s.dur)
    return one(fold.percentile(diffs, 0.50), len(diffs))


# ---------------------------------------------------------------- output --

def table(title, rows, units):
    print(f"== {title}")
    print(f"{'metric':<44} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'n':>7}")
    for name, s in rows.items():
        print(f"{name:<44} {units.get(name, ''):<9} {fmt(s['median']):>12} "
              f"{fmt(s['q1']):>12} {fmt(s['q3']):>12} {s['n']:>7}")
    print()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PAPER_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2,
                    help="sweep threads, or the serve solve pool")
    ap.add_argument("--clients", type=int, default=2,
                    help="serve_replay client connections")
    ap.add_argument("--apps", type=int, default=2)
    ap.add_argument("--apps150", type=int, default=1)
    ap.add_argument("--step", type=int, default=5)
    ap.add_argument("--step150", type=int, default=8)
    ap.add_argument("--cold", type=int, default=1024)
    ap.add_argument("--hot", type=int, default=10240)
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                    help="recorded report digests (tests pass a corrupted copy)")
    ap.add_argument("--tamper-hit", type=int, default=-1,
                    help="test hook: corrupt this hot response before checking")
    a = ap.parse_args(argv)
    nproc = os.cpu_count() or 1
    for name in ("threads", "clients"):
        v = getattr(a, name)
        if not 1 <= v <= nproc:
            ap.error(f"--{name} must be in 1..{nproc} (nproc), got {v}")
    for name in ("seconds", "apps", "apps150", "step", "step150", "cold", "hot"):
        if getattr(a, name) < 1:
            ap.error(f"--{name} must be at least 1")
    if a.seed < 0:
        ap.error("--seed must not be negative")
    return a


def main(argv):
    t_start = time.monotonic()
    a = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        target, exe = build()
    except (Usage, subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: cannot build spgbench: {e}")
        return 2

    grid = a.workload in ("paper_grid", "paper_campaign")
    knobs = {"apps": a.apps, "apps150": a.apps150, "step": a.step,
             "step150": a.step150}
    expected = recorded_digests(a.digests, knobs) if grid else None
    work = os.path.join(target, "work", f"{a.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, f"--workload={a.workload}", f"--seed={a.seed}",
           f"--seconds={a.seconds}", f"--trace={a.trace}",
           f"--threads={a.threads}", f"--clients={a.clients}",
           f"--apps={a.apps}", f"--apps150={a.apps150}", f"--step={a.step}",
           f"--step150={a.step150}",
           f"--cold={a.cold}", f"--hot={a.hot}", f"--tamper-hit={a.tamper_hit}",
           f"--oneshot={int(a.workload == 'paper_campaign' and expected is None)}"]
    try:
        budget = DEADLINE_S - (time.monotonic() - t_start)
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 30))
        if proc.returncode == 2:
            log("run.py: spgbench refused its arguments")
            return 2
        raw = json.loads(proc.stdout)
        return report(a, bench, raw, expected, target, work)
    except subprocess.TimeoutExpired:
        log("run.py: spgbench did not finish in time")
        return 1
    except json.JSONDecodeError:
        log(f"run.py: spgbench ended with status {proc.returncode} and no result")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(a, bench, raw, expected, target, work):
    notes = list(raw.get("notes", []))
    attempted, failed = raw["attempted"], raw["failed"]
    if "data" in raw and a.workload != "serve_replay":
        failed = min(attempted, failed + check_grid(raw, a, expected, notes))
    attempted = max(attempted, 1)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    data = raw.get("data", {})
    e2e, detail, layers, tables = {}, {}, {}, None
    if data:
        e2e = end_to_end(raw, a.workload)
        if a.workload == "serve_replay":
            detail = serve_detail(raw)
        if a.trace:
            tp = next(p for p in data["passes"] if p["traced"])
            spans = fold.load_spans(os.path.join(work, tp["trace"]))
            layers = per_layer(raw, a.workload, a.threads, detail, spans)
            tables = fold.fold(spans)

    print(f"spgcmp benchmark: workload {a.workload}, seed {a.seed}, "
          f"trace {a.trace}, {a.seconds} s timed")
    print(f"threads {a.threads}, clients {a.clients}, knobs "
          f"{json.dumps(data.get('knobs', {}), sort_keys=True)}, "
          f"{raw['compiler']}, {raw['build_type']}, nproc {raw['nproc']}")
    print(f"passes {len(data.get('passes', []))}, operations {attempted}, "
          f"failed {failed} (share {failed / attempted:.4f})")
    for n in notes:
        print(f"note: {n}")
    for f in raw.get("failures", []):
        print(f"failure: {f}")
    print()
    table("end to end (untraced passes)", e2e, units)
    if detail:
        table("serve_replay client view (untraced passes)",
              {f"serve.{k}": v for k, v in detail.items()}, units)
    if layers:
        table("per layer (traced run)", layers, units)
        print(f"== folded trace of pass {data['passes'].index(tp)}")
        fold.render(tables)

    wanted = bench["per_layer"] if a.trace else bench["end_to_end"]
    values = layers if a.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = failed == 0 and len(metrics) == len(wanted)

    results = os.path.join(target, "results")
    os.makedirs(results, exist_ok=True)
    doc = os.path.join(results, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(doc, "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                   "seconds": a.seconds, "threads": a.threads,
                   "clients": a.clients, "knobs": data.get("knobs"),
                   "compiler": raw["compiler"], "build_type": raw["build_type"],
                   "nproc": raw["nproc"], "attempted": attempted,
                   "failed": failed, "notes": notes,
                   "failures": raw.get("failures", []),
                   "end_to_end": e2e, "serve_client": detail,
                   "per_layer": layers, "fold": tables,
                   "digests": (data["passes"][0].get("digests")
                               if data.get("passes") else None)},
                  f, indent=1, sort_keys=True)
    log(f"run.py: results in {doc}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
