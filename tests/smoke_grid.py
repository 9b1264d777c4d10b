#!/usr/bin/env python3
"""End-to-end smoke checks of the paper grid and the campaign tools.

usage: smoke_grid.py BENCH_RUN_ALL SPGCMP_CAMPAIGN SPGCMP_CLI SOURCE_DIR

Drives the real binaries: the solver listing and exit codes of the tools,
byte-identical bench_run_all output across thread counts, topologies,
solver subsets and tracing, the recorded report digests
(SOURCE_DIR/perfbench/digests.json), and the campaign contract — run,
interrupt, resume and merge, a SIGINT pause, two workers, and a kill -9'd
worker — each merging to the bytes of the one-shot bench_run_all.

Independent checks run concurrently, each in its own fresh temp dir, and
wait on observable conditions with a deadline, never on a fixed sleep.
Exits nonzero with a message for every failed check.
"""

import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

RUN_ALL, CAMPAIGN, CLI = (os.path.abspath(p) for p in sys.argv[1:4])
SOURCE = os.path.abspath(sys.argv[4])
DEADLINE_S = 300.0  # sanitizer builds are slow

# The smoke knobs: one workload per point, sparse elevations, no n=150.
QUICK = ["--apps=1", "--apps150=0", "--step=10", "--step150=15"]
# Denser knobs for the checks that interrupt a campaign mid-run.
DENSE = ["--apps=2", "--apps150=0", "--step=3", "--step150=15"]


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def wait_for(cond, what):
    end = time.monotonic() + DEADLINE_S
    while not cond():
        if time.monotonic() > end:
            raise AssertionError("timed out waiting for " + what)
        time.sleep(0.02)


def read(path):
    with open(path) as f:
        return f.read()


def run(cmd, cwd, codes=(0,)):
    """Run to completion in `cwd`; the exit code must be one of `codes`."""
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=DEADLINE_S)
    check(p.returncode in codes, "%s exited %d, expected %s\n%s" %
          (" ".join(os.path.basename(c) for c in cmd[:2]), p.returncode,
           codes, p.stderr))
    return p


def bench(cwd, threads, out, *args):
    """bench_run_all's stdout, with its BENCH files under cwd/out."""
    return run([RUN_ALL, "--threads=%d" % threads, "--out=" + out] + list(args),
               cwd).stdout


def bench_bg(cwd, threads, out, *args):
    """bench_run_all started in the background (a one-shot reference that
    runs while the check drives a campaign); finish() it later."""
    return subprocess.Popen([RUN_ALL, "--threads=%d" % threads, "--out=" + out]
                            + list(args), cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def finish(proc):
    _, err = proc.communicate(timeout=DEADLINE_S)
    check(proc.returncode == 0, "one-shot reference failed:\n" + err)


def reports(path):
    """{file name: bytes} of every BENCH_*.json under `path`."""
    out = {}
    for name in sorted(os.listdir(path)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            with open(os.path.join(path, name), "rb") as f:
                out[name] = f.read()
    return out


def same_reports(got, want):
    a, b = reports(got), reports(want)
    check(a, "no BENCH files under " + got)
    check(sorted(a) == sorted(b), "report sets differ: %s vs %s" % (sorted(a), sorted(b)))
    for name in a:
        check(a[name] == b[name], "%s differs between %s and %s" % (name, got, want))


def same_runs(d, args, threads_a, threads_b):
    """Console output and BENCH files identical at two thread counts."""
    out_a = bench(d, threads_a, "out_a", *args)
    out_b = bench(d, threads_b, "out_b", *args)
    check(out_a.replace("out_a/", "out_b/") == out_b,
          "stdout differs at %d and %d threads" % (threads_a, threads_b))
    same_reports(os.path.join(d, "out_a"), os.path.join(d, "out_b"))
    return out_a


def status(d, camp, codes=(0,), *extra):
    return run([CAMPAIGN, "status", "--dir=" + camp] + list(extra), d, codes)


def check_cli_listing_and_exit_codes(d):
    golden = read(os.path.join(SOURCE, "tests", "golden", "list_solvers.txt"))
    check(run([CLI, "--list-solvers"], d).stdout == golden,
          "spgcmp_cli --list-solvers differs from the golden listing")
    run([CLI, "--heuristics=dpa2d1d,exact", "--list-solvers"], d)
    # Unknown solvers exit 2 with the listing, identically in every tool.
    run([CLI, "map", "--in=nope.spg", "--heuristics=bogus"], d, (2,))
    run([CAMPAIGN, "run", "--spec=paper", "--dir=camp-x", "--heuristics=bogus"],
        d, (2,))
    p = run([RUN_ALL, "--heuristics=bogus"], d, (2,))
    check(golden in p.stderr and not p.stdout,
          "bench_run_all: no listing for an unknown solver, or partial output")
    p = run([RUN_ALL, "--topology=ring"], d, (2,))
    check("unknown topology" in p.stderr and not p.stdout,
          "bench_run_all --topology=ring: " + p.stderr + p.stdout[:200])
    # Anything else, like an --out path under a regular file, exits 1.
    open(os.path.join(d, "afile"), "w").close()
    run([RUN_ALL, "--out=afile/sub", "--heuristics=greedy"] + QUICK, d, (1,))
    # An unknown flag exits 2 before any work: no grid, no BENCH files.
    empty = os.path.join(d, "empty")
    os.mkdir(empty)
    p = run([RUN_ALL, "--thread=4"], empty, (2,))
    check("'--thread'" in p.stderr and not p.stdout and not os.listdir(empty),
          "bench_run_all --thread=4: " + p.stderr + p.stdout[:200])
    run([CAMPAIGN, "status", "--dir=camp-x", "--jsn"], d, (2,))


def check_new_solvers_deterministic(d):
    # The two non-paper registry solvers: anneal's chain and peft's table
    # are deterministic per instance seed.
    same_runs(d, QUICK + ["--heuristics=dpa2d1d+refine,anneal,peft"], 1, 8)


def check_bench_deterministic(d):
    same_runs(d, ["--apps=1", "--apps150=1", "--step=10", "--step150=15"], 1, 4)


def check_torus_deterministic(d):
    out = same_runs(d, QUICK + ["--topology=torus"], 1, 4)
    check("platform topology: torus" in out, "torus run not tagged")


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def check_grid_digests(d):
    # The report bytes recorded in perfbench/digests.json: a change of
    # figure bytes between commits fails here.
    digests = json.loads(read(os.path.join(SOURCE, "perfbench", "digests.json")))
    want = digests["knobs"]["apps=2,apps150=1,step=5,step150=8"]
    bench(d, 4, "grid", "--apps=2", "--apps150=1", "--step=5", "--step150=8")
    got = reports(os.path.join(d, "grid"))
    bad = [name for name, digest in sorted(want.items())
           if fnv1a64(got.get("BENCH_%s.json" % name, b"")) != digest]
    check(not bad, "report bytes changed: " + ", ".join(bad))


def check_traced_equals_untraced(d):
    for t in (1, 8):
        plain = bench(d, t, "plain%d" % t, *QUICK)
        traced = bench(d, t, "traced%d" % t, *QUICK,
                       "--trace=run%d.trace.json" % t,
                       "--metrics=run%d.metrics.json" % t)
        check(traced.replace("traced%d/" % t, "plain%d/" % t) == plain,
              "traced stdout differs at %d threads" % t)
        same_reports(os.path.join(d, "plain%d" % t), os.path.join(d, "traced%d" % t))
    json.loads(read(os.path.join(d, "run1.trace.json")))
    json.loads(read(os.path.join(d, "run1.metrics.json")))
    trace = json.loads(read(os.path.join(d, "run8.trace.json")))
    names = {e["name"] for e in trace["traceEvents"]}
    check({"solve", "sweep.instance", "pool.parallel_for"} <= names, sorted(names))
    m = json.loads(read(os.path.join(d, "run8.metrics.json")))
    check(m["counters"]["solve.count"] > 0, m["counters"])
    check("solve.wall_us" in m["histograms"], list(m["histograms"]))


def interrupt_resume_merge(d, camp, extra):
    """Run 3 shards, resume, merge; returns the merged directory."""
    run([CAMPAIGN, "run", "--spec=paper", "--dir=" + camp, "--threads=4",
         "--max-shards=3"] + extra + QUICK, d, (0, 3))
    # status mirrors run/resume: exit 3 while shards are pending, 0 after.
    status(d, camp, (3,))
    run([CAMPAIGN, "resume", "--dir=" + camp, "--threads=4"], d)
    status(d, camp)
    run([CAMPAIGN, "merge", "--dir=" + camp, "--out=" + camp + "-bench"], d)
    return os.path.join(d, camp + "-bench")


def check_campaign_resume_merges_to_oneshot(d):
    ref = bench_bg(d, 4, "oneshot", *QUICK)
    merged = interrupt_resume_merge(d, "camp", [])
    doc = json.loads(status(d, "camp", (0,), "--json").stdout)
    check(doc["complete"] and doc["shards_done"] == doc["shards_total"], doc)
    check(doc["shards_timed"] > 0 and doc["shards_per_second"] > 0, doc)
    finish(ref)
    same_reports(merged, os.path.join(d, "oneshot"))


def check_subset_campaign_merges_to_oneshot(d):
    subset = ["--heuristics=random,dpa2d1d"]
    ref = bench_bg(d, 4, "oneshot", *(subset + QUICK))
    merged = interrupt_resume_merge(d, "camp", subset)
    finish(ref)
    same_reports(merged, os.path.join(d, "oneshot"))
    fig8 = json.loads(read(os.path.join(merged, "BENCH_fig8_streamit_4x4.json")))
    heuristics = fig8["heuristics"]
    check(heuristics == ["Random", "DPA2D1D"], heuristics)


def check_sigint_pauses_with_valid_manifest(d):
    # A real SIGINT pauses the run: the in-flight shard finishes, the
    # manifest is checkpointed, and the tool exits 3.
    with open(os.path.join(d, "run.txt"), "w") as out:
        proc = subprocess.Popen([CAMPAIGN, "run", "--spec=paper", "--dir=camp",
                                 "--threads=1"] + DENSE, cwd=d, stdout=out,
                                stderr=subprocess.STDOUT)
    try:
        log = os.path.join(d, "camp", "shards.jsonl")
        wait_for(lambda: os.path.exists(log) and "\n" in read(log),
                 "the first persisted shard")
        proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    check(rc == 3, "paused run exited %d, expected 3" % rc)
    check("campaign paused" in read(os.path.join(d, "run.txt")), "no pause message")
    m = json.loads(read(os.path.join(d, "camp", "MANIFEST.json")))
    check(0 <= m["shards_done"] < m["shards_total"], m)
    # The paused directory resumes cleanly, one shard quantum at a time.
    run([CAMPAIGN, "resume", "--dir=camp", "--threads=4", "--max-shards=1"], d, (3,))
    status(d, "camp", (3,))


def check_two_workers_merge_to_oneshot(d):
    ref = bench_bg(d, 2, "oneshot", *QUICK)
    run([CAMPAIGN, "run", "--spec=paper", "--dir=camp", "--workers=2",
         "--threads=2"] + QUICK, d)
    status(d, "camp")
    run([CAMPAIGN, "merge", "--dir=camp", "--out=merged"], d)
    finish(ref)
    same_reports(os.path.join(d, "merged"), os.path.join(d, "oneshot"))


def leases(camp):
    """{lease file name: worker id} under `camp` right now."""
    held = {}
    root = os.path.join(camp, "leases")
    if not os.path.isdir(root):
        return held
    for name in os.listdir(root):
        try:
            with open(os.path.join(root, name)) as f:
                held[name] = json.load(f)["worker"]
        except (OSError, ValueError, KeyError):
            pass  # released, reclaimed or mid-create
    return held


def shard_keys(camp, worker):
    """"<sweep>__<shard>" of every whole record in a worker's shard log."""
    keys = set()
    try:
        lines = read(os.path.join(camp, "shards-%s.jsonl" % worker)).splitlines()
    except OSError:
        return keys
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # a torn tail
        keys.add("%s__%d" % (rec["sweep"], rec["shard"]))
    return keys


def lease_holders(camp):
    """Worker ids of the lease files under `camp` right now."""
    return set(leases(camp).values())


def check_killed_worker_is_reclaimed(d):
    # Two independently launched workers share one directory; one is
    # kill -9'd while it holds a lease.  A worker holds one lease per shard
    # it has open, so the dead worker may leave several; the survivor
    # reclaims every one of them (pid liveness + TTL) and finishes, and the
    # merge still equals the one-shot bytes.
    ref = bench_bg(d, 2, "oneshot", *DENSE)
    camp = os.path.join(d, "camp")

    def worker(name):
        with open(os.path.join(d, name + ".txt"), "w") as out:
            return subprocess.Popen(
                [CAMPAIGN, "run", "--spec=paper", "--dir=camp", "--worker=" + name,
                 "--lease-ttl=2", "--threads=2"] + DENSE,
                cwd=d, stdout=out, stderr=subprocess.STDOUT)

    a = worker("a")
    b = None
    try:
        wait_for(lambda: "a" in lease_holders(camp), "worker a's first lease")
        b = worker("b")
        wait_for(lambda: "a" in lease_holders(camp), "worker a to hold a lease")
        a.kill()
        a.wait()
        orphaned = sorted(n for n, w in leases(camp).items() if w == "a")
        rc = b.wait(timeout=DEADLINE_S)
    finally:
        for p in (a, b):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
    # The survivor either completed the campaign (0) or stopped with shards
    # still leased to the corpse (3); resume covers that.
    check(rc in (0, 3), "surviving worker exited %d" % rc)
    if status(d, "camp", (0, 3)).returncode != 0:
        run([CAMPAIGN, "resume", "--dir=camp", "--worker=b", "--lease-ttl=2",
             "--threads=2"], d)
        status(d, "camp")
    # Every shard the dead worker held a lease on and had not persisted was
    # reclaimed and run by the survivor.
    lost = [n for n in orphaned if n[:-len(".lease")] not in shard_keys(camp, "a")]
    missing = [n for n in lost if n[:-len(".lease")] not in shard_keys(camp, "b")]
    check(not missing, "leases of the killed worker never reclaimed: %s" % missing)
    run([CAMPAIGN, "merge", "--dir=camp", "--out=merged"], d)
    finish(ref)
    same_reports(os.path.join(d, "merged"), os.path.join(d, "oneshot"))
    check("shards done" in read(os.path.join(d, "b.txt")), "no survivor summary")


def check_traced_campaign_records_shards(d):
    run([CAMPAIGN, "run", "--spec=paper", "--dir=camp", "--threads=2",
         "--trace=camp.trace.json", "--metrics=camp.metrics.json"] + QUICK, d)
    trace = json.loads(read(os.path.join(d, "camp.trace.json")))
    names = {e["name"] for e in trace["traceEvents"]}
    check({"campaign.shard", "campaign.persist", "solve"} <= names, sorted(names))
    m = json.loads(read(os.path.join(d, "camp.metrics.json")))
    check(m["counters"]["campaign.shards"] > 0, "no shard counter")
    # Every persisted shard record carries its wall_seconds.
    recs = [json.loads(line)
            for line in read(os.path.join(d, "camp", "shards.jsonl")).splitlines()]
    check(recs and all(r["wall_seconds"] >= 0 for r in recs), len(recs))


# Longest first, so the slow checks start before the pool fills.
CHECKS = [
    check_killed_worker_is_reclaimed,
    check_grid_digests,
    check_traced_equals_untraced,
    check_bench_deterministic,
    check_sigint_pauses_with_valid_manifest,
    check_campaign_resume_merges_to_oneshot,
    check_two_workers_merge_to_oneshot,
    check_torus_deterministic,
    check_subset_campaign_merges_to_oneshot,
    check_new_solvers_deterministic,
    check_traced_campaign_records_shards,
    check_cli_listing_and_exit_codes,
]


def run_check(fn):
    with tempfile.TemporaryDirectory(prefix="spgcmp_grid_") as tmp:
        t0 = time.monotonic()
        try:
            fn(tmp)
        except (AssertionError, OSError, ValueError, KeyError,
                subprocess.SubprocessError) as e:
            return "FAIL %s: %s" % (fn.__name__, e)
        return "ok   %s (%.1f s)" % (fn.__name__, time.monotonic() - t0)


def main():
    t0 = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run_check, CHECKS))
    for line in results:
        print(line, file=sys.stderr if line.startswith("FAIL") else sys.stdout)
    print("smoke_grid: %d checks in %.1f s" % (len(CHECKS), time.monotonic() - t0))
    return 1 if any(line.startswith("FAIL") for line in results) else 0


if __name__ == "__main__":
    sys.exit(main())
