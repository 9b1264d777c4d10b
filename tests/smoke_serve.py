#!/usr/bin/env python3
"""End-to-end smoke checks of the spgcmp_serve daemon through its binaries.

usage: smoke_serve.py SPGCMP_SERVE SPGCMP_SERVE_CLIENT

Every mode of the daemon runs one poll loop; this drives each way a
request can arrive: stdin, --replay, a --in FIFO, --listen sockets, and
--in together with --listen, plus a traced session's in-band stats and a
reordered repeat recognised by its text over a socket.  Each
check works in its own fresh temp dir (safe under ctest -j) and waits on
an observable condition with a deadline, never on a fixed sleep.  Exits
nonzero with a message on the first failed check.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

SERVE, CLIENT = (os.path.abspath(p) for p in sys.argv[1:3])
DEADLINE_S = 120.0  # sanitizer builds are slow


def request(seed, rid=None):
    doc = {} if rid is None else {"id": rid}
    doc.update({
        "generator": {"n": 12, "ymax": 3, "seed": seed, "ccr": 1.0},
        "topology": {"rows": 3, "cols": 3},
        "solver": "greedy",
        "period": 1.0,
    })
    return json.dumps(doc, separators=(",", ":"))


def report(line):
    """The raw report bytes of a response line."""
    return line.split('"report": ', 1)[1]


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def wait_for(cond, what):
    end = time.monotonic() + DEADLINE_S
    while not cond():
        if time.monotonic() > end:
            raise AssertionError("timed out waiting for " + what)
        time.sleep(0.02)


def lines_of(path):
    """The complete lines written to `path` so far."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return f.read().split("\n")[:-1]


def serve(args, stdin_text):
    """Run the daemon to EOF over `stdin_text`; returns (rc, out lines, err)."""
    p = subprocess.run([SERVE] + args, input=stdin_text, capture_output=True,
                       text=True, timeout=DEADLINE_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
    return p.returncode, p.stdout.splitlines(), p.stderr


STARTED = []  # background daemons, killed if a check fails mid-way


def start(args, out="out.jsonl", err="err.txt"):
    with open(out, "w") as o, open(err, "w") as e:
        proc = subprocess.Popen([SERVE] + args, stdout=o, stderr=e,
                                stdin=subprocess.DEVNULL)
    STARTED.append(proc)
    return proc


def stop(proc):
    """SIGTERM the daemon; it must drain and exit 3."""
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=DEADLINE_S)
    if rc != 3:
        sys.stderr.write(open("err.txt").read())
    check(rc == 3, "daemon exit after SIGTERM: %d, expected 3" % rc)


def connectable(path):
    if not os.path.exists(path):
        return False
    with socket.socket(socket.AF_UNIX) as s:
        try:
            s.connect(path)
            return True
        except OSError:
            return False


def check_stream_duplicates():
    # One cold solve, five hits: hits cost zero evaluator calls and repeat
    # the cold report byte for byte.
    rc, lines, _ = serve(["--threads=2", "--log=log.jsonl"],
                         (request(5) + "\n") * 6)
    check(rc == 0, "stdin run exit %d" % rc)
    check(len(lines) == 6, "%d responses to 6 requests" % len(lines))
    docs = [json.loads(line) for line in lines]
    check(all(d["status"] == "ok" for d in docs), docs)
    cold = [d for d in docs if d["cache"] == "miss"]
    hits = [d for d in docs if d["cache"] == "hit"]
    check(len(cold) == 1 and len(hits) == 5, "expected 1 miss, 5 hits")
    check(cold[0]["request_evals"] > 0, "cold solve made no evaluator calls")
    check(all(d["request_evals"] == 0 for d in hits), "a hit cost evaluator calls")
    check(len({report(line) for line in lines}) == 1,
          "hit payload not byte-identical to the cold solve")

    # Replaying the log rebuilds the cache through the same loop, and the
    # replayed lines are not appended to the log again.
    rc, _, err = serve(["--replay=log.jsonl", "--log=log.jsonl"], "")
    check(rc == 0, "replay exit %d" % rc)
    check("replayed: 6 accepted" in err and "5 from cache" in err, err)
    check(len(lines_of("log.jsonl")) == 6, "replay re-appended to the log")


def check_traced_session_answers_live_stats():
    # In-band {"stats":true} answers live cache and metrics, the trace has
    # the request spans, and --stats-out installs a final document at exit.
    stdin = request(5) + "\n" + request(5) + "\n" + '{"id":"s","stats":true}\n'
    rc, lines, _ = serve(["--threads=2", "--trace=serve.trace.json",
                          "--metrics=serve.metrics.json",
                          "--stats-out=serve.stats.json"], stdin)
    check(rc == 0, "exit %d" % rc)
    check(len(lines) == 3, "%d responses to 3 requests" % len(lines))
    stats = json.loads(lines[2])
    check(stats["id"] == "s" and stats["status"] == "ok", stats)
    check(stats["stats"]["cache"]["hits"] == 1, stats["stats"]["cache"])
    check(stats["stats"]["metrics"]["counters"]["serve.requests"] >= 2,
          "metrics missing")
    names = {e["name"] for e in json.load(open("serve.trace.json"))["traceEvents"]}
    check({"serve.request", "serve.solve"} <= names, sorted(names))
    final = json.load(open("serve.stats.json"))
    check(final["summary"]["answered"] == 3 and
          final["summary"]["stats_requests"] == 1, final["summary"])
    check(final["cache"]["hits"] == 1, final["cache"])
    check(final["metrics"]["counters"]["serve.requests"] >= 2, "metrics missing")


def check_in_band_errors():
    rc, lines, _ = serve([], 'not json\n{"solver":"greedy","period":1}\n')
    check(rc == 0, "exit %d" % rc)
    docs = [json.loads(line) for line in lines]
    check(len(docs) == 2 and all(d["code"] == 2 for d in docs), docs)

    # The frame cap holds on the stream too: code 2, then resync.
    rc, lines, _ = serve(["--max-frame-bytes=256"],
                         "x" * 1024 + "\n" + request(5, 7) + "\n")
    check(rc == 0, "exit %d" % rc)
    check(len(lines) == 2, lines)
    first, second = json.loads(lines[0]), json.loads(lines[1])
    check(first["code"] == 2 and "exceeds 256 bytes" in first["error"], first)
    check(second["status"] == "ok" and second["id"] == 7, second)


def check_fifo_sigterm():
    # SIGTERM mid-stream: the daemon drains, prints its summary, exits 3.
    os.mkfifo("pipe")
    proc = start(["--in=pipe", "--threads=2"])
    writer = None

    def open_writer():
        nonlocal writer
        try:  # ENXIO until the daemon has the read end open
            writer = os.open("pipe", os.O_WRONLY | os.O_NONBLOCK)
            return True
        except OSError:
            return False

    wait_for(open_writer, "the daemon to open its FIFO")
    os.write(writer, (request(5) + "\n").encode())
    wait_for(lambda: any('"status": "ok"' in line for line in lines_of("out.jsonl")),
             "the FIFO request's answer")
    stop(proc)
    os.close(writer)
    check(any('"cache": "miss"' in line for line in lines_of("out.jsonl")),
          "no cold solve answered")
    check("[serve] served:" in open("err.txt").read(), "no served summary")


def check_sockets_share_the_cache():
    # Two concurrent clients send the same two problems: both clients'
    # reports are byte-identical, the scrape has the --stats-out shape,
    # and SIGTERM drains to exit 3 with the final document installed.
    with open("reqs.jsonl", "w") as f:
        f.write(request(5) + "\n" + request(9) + "\n")
    proc = start(["--listen=serve.sock", "--threads=2",
                  "--stats-out=stats.json"])
    wait_for(lambda: connectable("serve.sock"), "the daemon to listen")
    clients = [subprocess.Popen([CLIENT, "--connect=serve.sock",
                                 "--in=reqs.jsonl"],
                                stdout=open(name, "w"))
               for name in ("a.jsonl", "b.jsonl")]
    for c in clients:
        check(c.wait(timeout=DEADLINE_S) == 0, "client failed")
    a = [json.loads(line) for line in lines_of("a.jsonl")]
    b = [json.loads(line) for line in lines_of("b.jsonl")]
    check(len(a) == 2 and len(b) == 2, (a, b))
    check(all(d["status"] == "ok" for d in a + b), a + b)
    for x, y in zip(a, b):
        check(json.dumps(x["report"]) == json.dumps(y["report"]),
              "reports differ across clients")
    hits = sum(d["cache"] == "hit" for d in a + b)
    check(hits == 2, "expected 2 cross-client hits, got %d" % hits)

    scrape = subprocess.run([CLIENT, "--connect=serve.sock", "--stats"],
                            capture_output=True, text=True, timeout=DEADLINE_S)
    check(scrape.returncode == 0, scrape.stderr)
    stop(proc)
    scraped = json.loads(scrape.stdout)
    final = json.load(open("stats.json"))
    keys = ["summary", "cache", "metrics", "deltas"]
    check(list(scraped) == keys and list(final) == keys, (list(scraped), list(final)))
    check(scraped["summary"]["ok"] >= 4 and scraped["cache"]["misses"] == 2,
          scraped["summary"])
    check(scraped["metrics"]["counters"]["serve.requests"] >= 4, "metrics missing")
    check("seq" in scraped["deltas"] and "window_seconds" in scraped["deltas"],
          scraped["deltas"])
    check(final["summary"]["interrupted"], final["summary"])


def check_socket_drain():
    # Requests accepted before SIGTERM are all answered (ok or an in-band
    # code-3 refusal) before the connection closes.
    proc = start(["--listen=drain.sock", "--threads=1"])
    wait_for(lambda: connectable("drain.sock"), "the daemon to listen")
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(DEADLINE_S)
    s.connect("drain.sock")
    s.sendall((request(5) + "\n" + request(9) + "\n" + request(13) + "\n").encode())
    data = b""
    while b"\n" not in data:  # the first answer: the rest were read with it
        chunk = s.recv(65536)
        check(chunk, "connection closed before any answer")
        data += chunk
    stop(proc)
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    docs = [json.loads(line) for line in data.decode().splitlines()]
    check(len(docs) == 3, "%d answers to 3 accepted requests" % len(docs))
    check(all(d["status"] == "ok" or d.get("code") == 3 for d in docs), docs)


def check_fifo_and_socket_in_one_loop():
    # --in=FIFO --listen=SOCK: a socket client is answered before the FIFO
    # has any writer, and the FIFO's repeat of that request is a hit with
    # the same report bytes.
    os.mkfifo("pipe")
    proc = start(["--in=pipe", "--listen=both.sock", "--threads=2"])
    wait_for(lambda: connectable("both.sock"), "the daemon to listen")
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(DEADLINE_S)
    s.connect("both.sock")
    s.sendall((request(5, 1) + "\n").encode())
    data = b""
    while b"\n" not in data:
        chunk = s.recv(65536)
        check(chunk, "connection closed before the socket answer")
        data += chunk
    s.close()
    sock_line = data.decode().splitlines()[0]
    check(json.loads(sock_line)["cache"] == "miss", sock_line)

    with open("pipe", "w") as fifo:  # the FIFO's first writer
        fifo.write(request(5, 2) + "\n")
    wait_for(lambda: lines_of("out.jsonl"), "the FIFO request's answer")
    fifo_line = lines_of("out.jsonl")[0]
    check(json.loads(fifo_line)["cache"] == "hit", fifo_line)
    check(report(fifo_line) == report(sock_line),
          "FIFO hit not byte-identical to the socket's cold solve")
    stop(proc)  # stream EOF left the socket serving until the signal
    err = open("err.txt").read()
    check("served: 2 accepted" in err and "1 from cache" in err, err)


def check_socket_repeat_hits_by_its_text():
    # A repeat with a new id and its members in another order is a free
    # hit with its miss's key and report bytes.
    proc = start(["--listen=alias.sock", "--threads=2"])
    wait_for(lambda: connectable("alias.sock"), "the daemon to listen")
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(DEADLINE_S)
    s.connect("alias.sock")
    doc = json.loads(request(5, 1))
    doc["id"] = "again"
    reordered = json.dumps(dict(reversed(list(doc.items()))))
    s.sendall((request(5, 1) + "\n" + reordered + "\n").encode())
    data = b""
    while data.count(b"\n") < 2:
        chunk = s.recv(65536)
        check(chunk, "connection closed before both answers")
        data += chunk
    s.close()
    miss, hit = data.decode().splitlines()
    m, h = json.loads(miss), json.loads(hit)
    check(m["cache"] == "miss", miss)
    check(h["cache"] == "hit" and h["id"] == "again" and h["request_evals"] == 0, hit)
    check(h["key"] == m["key"] and report(hit) == report(miss),
          "hit not byte-identical to its miss")
    stop(proc)


CHECKS = [
    check_stream_duplicates,
    check_traced_session_answers_live_stats,
    check_in_band_errors,
    check_fifo_sigterm,
    check_sockets_share_the_cache,
    check_socket_drain,
    check_fifo_and_socket_in_one_loop,
    check_socket_repeat_hits_by_its_text,
]


def main():
    for fn in CHECKS:
        with tempfile.TemporaryDirectory(prefix="spgcmp_smoke_") as tmp:
            os.chdir(tmp)
            try:
                fn()
            except (AssertionError, OSError, subprocess.SubprocessError) as e:
                print("FAIL %s: %s" % (fn.__name__, e), file=sys.stderr)
                return 1
            finally:
                for proc in STARTED:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
                STARTED.clear()
                os.chdir("/")
        print("ok   %s" % fn.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
