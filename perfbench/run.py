#!/usr/bin/env python3
"""End-to-end benchmark of the spsta analysis path.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0

It builds the `spsta` binary and the helper `perfbench/pb.exe` with
dune, generates the workload's inputs from --seed, drives the real
binary for --seconds, checks every answer, and prints one JSON object as
its last line.  --trace 0 reports the end-to-end metrics; --trace 1
runs the traced per-layer split instead.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bstats  # noqa: E402

ROOT = os.getcwd()
SPSTA = os.path.join(ROOT, "_build", "default", "bin", "spsta_cli.exe")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
WORK = os.path.join("perfbench", "_work")
WORKLOADS = ("serve_mix", "eco_session")

# serve_mix traffic.  No usage log exists to weight the request kinds
# by, so the five kinds have equal weight.  Each field a request leaves
# out takes the protocol's default (mc: 10,000 runs; size: 400 moves,
# 8 candidates).  The fields that vary are the ones a user changes
# between calls: the input regime (Case I/II) of analyze and mc, and
# the seed of mc, new for every mc request (an independent estimate).
# The traffic is dealt in decks, so every run sends the same mix and
# the seed only orders it; README.md gives the basis of each share.
KINDS = ("analyze", "ssta", "mc", "static", "size")
# set-ups per run; setup_s is their median.  serve_mix's takes ~20 ms,
# mostly process start, so it needs more of them for a steady median.
SETUPS = {"serve_mix": 15, "eco_session": 5}
RSS_DECK = 5  # serve_mix reads the server's peak RSS when this deck begins
ECO_CYCLES = 8  # sessions per eco_session run; full_cpu_ms is the median open

CHILDREN = []
CLK_TCK = os.sysconf("SC_CLK_TCK")


def report(msg):
    print(msg, flush=True)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    p = subprocess.Popen(cmd, **kw)
    CHILDREN.append(p)
    try:
        out, err = p.communicate(timeout=timeout)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        CHILDREN.remove(p)
    return p.returncode, out, err


def pb(*args, timeout=170):
    rc, out, err = run([PB] + [str(a) for a in args], timeout, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    if rc != 0:
        die("pb %s failed: %s" % (args[0], err.decode(errors="replace")[-500:]))
    return out.decode()


def build():
    for f in ("dune-project", "bin/spsta_cli.ml", "perfbench/pb.ml", "perfbench/dune"):
        if not os.path.exists(f):
            die("not a source checkout: %s is missing (run from the repository root)" % f)
    rc, _, err = run(["dune", "build", "--root", ".", "./bin/spsta_cli.exe",
                      "./perfbench/pb.exe"], 880, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
    if rc != 0:
        die("build failed:\n" + err.decode(errors="replace")[-2000:])


def fresh_dir(workload):
    d = os.path.join(WORK, workload)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


# ---------- server and client ----------

class Server:
    """One `spsta serve --socket` process with default settings."""

    def __init__(self, sock, log):
        if os.path.exists(sock):
            os.unlink(sock)
        self.sock = sock
        self.p = subprocess.Popen([SPSTA, "serve", "--socket", sock],
                                  stdout=subprocess.DEVNULL, stderr=log)
        CHILDREN.append(self.p)
        deadline = time.monotonic() + 60
        while True:
            try:
                s = socket.socket(socket.AF_UNIX)
                s.connect(sock)
                s.close()
                return
            except OSError:
                s.close()
                if self.p.poll() is not None or time.monotonic() > deadline:
                    die("server did not start")
                time.sleep(0.005)

    def cpu_s(self):
        """CPU time the server has used, all threads, from /proc/<pid>/stat.
        The kernel leaves out time the hypervisor took from the vCPU
        (steal), which wall time on a shared host includes."""
        with open("/proc/%d/stat" % self.p.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                self.p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        CHILDREN.remove(self.p)


class Conn:
    """A closed-loop client connection: send one line, wait for its reply."""

    def __init__(self, sock):
        self.s = socket.socket(socket.AF_UNIX)
        self.s.connect(sock)
        self.r = self.s.makefile("rb")

    def rpc(self, line):
        t0 = time.perf_counter()
        self.s.sendall(line.encode() + b"\n")
        reply = self.r.readline()
        t1 = time.perf_counter()
        if not reply:
            raise RuntimeError("server closed the connection")
        return reply.rstrip(b"\n"), t0, t1

    def close(self):
        self.r.close()
        self.s.close()


def parse_reply(reply):
    """(ok, elapsed_ms, result bytes or error code, parsed dict)."""
    d = json.loads(reply)
    if d.get("status") != "ok":
        return False, 0.0, d.get("code", "?"), d
    i = reply.index(b'"result":')
    return True, d["elapsed_ms"], reply[i + 9:-1], d


def timed_setup(make, n):
    """Run make() n times; keep the last result, return it and the times."""
    times = []
    result = None
    for i in range(n):
        if result is not None and hasattr(result, "cleanup"):
            result.cleanup()
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result, times


class Setup:
    def __init__(self, **kw):
        self.__dict__.update(kw)

    def cleanup(self):
        if getattr(self, "server", None):
            self.server.stop()


# ---------- serve_mix traffic ----------

def deck_requests(circuits):
    """One deck's requests, before the seed deals them: on every
    stand-in, analyze and mc once per input regime, and ssta, static
    and size twice each."""
    reqs = []
    for c in circuits:
        for case in ("I", "II"):
            reqs.append({"kind": "analyze", "case": case, "circuit": c})
            reqs.append({"kind": "mc", "case": case, "circuit": c})
        for kind in ("ssta", "static", "size"):
            reqs += [{"kind": kind, "circuit": c} for _ in range(2)]
    return reqs


def warm_up_requests(circuits):
    """Sent once before the timed window: every key of the mix but mc's,
    and one mc per stand-in.  After them every analyze, ssta, static and
    size request hits the memo, and every mc request computes."""
    reqs = [r for r in deck_requests(circuits) if r["kind"] != "mc"]
    reqs = [r for i, r in enumerate(reqs) if r not in reqs[:i]]
    reqs += [{"kind": "mc", "case": "I", "seed": 0, "circuit": c} for c in circuits]
    return [dict(r, id="w%d" % i) for i, r in enumerate(reqs)]


def key_of(req):
    """The memo key a request maps to: its fields without the id."""
    return json.dumps({k: v for k, v in req.items() if k != "id"}, sort_keys=True)


class Mix:
    """The seeded serve_mix stream, dealt deck by deck on demand.

    A deck is 20 requests of each kind: deck_requests, dealt two to a
    round (one per connection), plus one pair round per kind, which
    sends one request on both connections at the same moment.  The
    pairs' stand-ins cycle through a seeded order from deck to deck and
    their input regimes alternate.  So every run sends the same mix;
    the seed orders the rounds, draws the mc seeds and picks the
    pairs."""

    def __init__(self, seed, circuits):
        self.rng = random.Random(seed)
        self.circuits = circuits
        self.order = self.rng.sample(circuits, len(circuits))
        self.deck_rounds = len(deck_requests(circuits)) // 2 + len(KINDS)
        self.rounds = []
        self.go = {}  # deck -> whether it is sent
        self.lock = threading.Lock()

    def _fill(self, req):
        if req["kind"] == "mc":
            req["seed"] = self.rng.randrange(1 << 30)
        return req

    def _deal(self):
        d = len(self.rounds) // self.deck_rounds
        reqs = [self._fill(r) for r in deck_requests(self.circuits)]
        self.rng.shuffle(reqs)
        rounds = [(False, reqs[i:i + 2]) for i in range(0, len(reqs), 2)]
        for k, kind in enumerate(KINDS):
            req = {"kind": kind, "circuit": self.order[(d + k) % len(self.order)]}
            if kind in ("analyze", "mc"):
                req["case"] = ("I", "II")[(d + k) % 2]
            req = self._fill(req)
            rounds.append((True, [req, req]))
        self.rng.shuffle(rounds)
        for pair, rs in rounds:
            i = len(self.rounds)
            self.rounds.append((pair, [dict(r, id="r%d-%d" % (i, c)) for c, r in enumerate(rs)]))

    def round(self, i):
        with self.lock:
            while len(self.rounds) <= i:
                self._deal()
            return self.rounds[i]

    def sends(self, i, t_end):
        """Whether round i is sent: a deck begun before t_end is sent
        whole, so a run is made of whole decks."""
        d = i // self.deck_rounds
        with self.lock:
            if d not in self.go:
                self.go[d] = time.perf_counter() < t_end
            return self.go[d]


def warm_up(server, circuits):
    """Send the warm-up on one connection; its records and the server's
    CPU time for it."""
    conn = Conn(server.sock)
    warm = []
    cpu0 = server.cpu_s()
    for req in warm_up_requests(circuits):
        reply, t0, t1 = conn.rpc(json.dumps(req))
        warm.append((0, req, t0, t1, reply, False))
    cpu = server.cpu_s() - cpu0
    conn.close()
    return warm, cpu


def drive_mix(server, mix, seconds):
    """The warm-up on one connection, then two closed-loop connections
    for whole decks until `seconds` have passed.  Returns the
    warm-up's and the timed window's per-request records (conn, request,
    t0, t1, reply, part of a pair) and server CPU time, the window's wall
    time, and the server's peak RSS when deck RSS_DECK began (at the end
    if the window was shorter).  RSS is read there because how many mc
    results the memo holds by the end depends on how fast the host ran."""
    sock = server.sock
    warm, warm_cpu = warm_up(server, mix.circuits)
    records = [[], []]
    barrier = threading.Barrier(2)
    errors = []
    rss = []
    t_end = time.perf_counter() + seconds

    def client(c):
        try:
            conn = Conn(sock)
            i = 0
            while mix.sends(i, t_end):
                if c == 0 and i == RSS_DECK * mix.deck_rounds:
                    rss.append(server.peak_rss_mb())
                pair, reqs = mix.round(i)
                if pair:
                    barrier.wait(timeout=120)
                req = reqs[c]
                reply, t0, t1 = conn.rpc(json.dumps(req))
                records[c].append((c, req, t0, t1, reply, pair))
                i += 1
            conn.close()
        except threading.BrokenBarrierError:
            errors.append("the other connection stopped")
        except Exception as e:  # aborts the run once both clients stop
            errors.append(repr(e))
        finally:
            barrier.abort()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
    cpu0 = server.cpu_s()
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    cpu = server.cpu_s() - cpu0
    if errors:
        die("client failed: " + "; ".join(errors))
    return SimpleNamespace(warm=warm, warm_cpu=warm_cpu, records=records[0] + records[1], wall=wall, cpu=cpu,
                           rss=(rss or [server.peak_rss_mb()])[0])


def reference_results(requests):
    """Engine.execute on a fresh cache (one per helper process, two
    processes); {id: result bytes or b'error:...'}."""
    halves = [requests[0::2], requests[1::2]]
    procs = []
    for h in halves:
        p = subprocess.Popen([PB, "reference"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        CHILDREN.append(p)
        procs.append((p, "".join(json.dumps(r) + "\n" for r in h).encode()))
    out = {}
    threads = []
    results = [None, None]

    def talk(k, p, data):
        results[k] = p.communicate(data, timeout=170)

    for k, (p, data) in enumerate(procs):
        t = threading.Thread(target=talk, args=(k, p, data))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    for (p, _), res in zip(procs, results):
        CHILDREN.remove(p)
        if p.returncode != 0:
            die("reference failed: " + res[1].decode(errors="replace")[-500:])
        for line in res[0].split(b"\n"):
            if line:
                rid, payload = line.split(b"\t", 1)
                out[rid.decode()] = payload
    return out


def check_mix(records):
    """The ids of failed requests: error replies and payloads, repeats
    included, that differ from the in-process reference for their key;
    and the number of distinct keys."""
    first = {}
    for _, req, _, _, _, _ in records:
        first.setdefault(key_of(req), req)
    ref = reference_results(list(first.values()))
    ref_by_key = {k: ref[r["id"]] for k, r in first.items()}
    failed = set()
    for _, req, _, _, reply, _ in records:
        ok, _, payload, _ = parse_reply(reply)
        if not ok or payload != ref_by_key[key_of(req)]:
            failed.add(req["id"])
    return failed, len(first)


# ---------- eco_session traffic ----------

def read_plan(d):
    with open(os.path.join(d, "eco_plan.jsonl")) as f:
        return [json.loads(line) for line in f]


def drive_session(server, conn, circuit, plan, start, seconds, cycle):
    """Open a session, stream the plan from index `start` until `seconds`
    have passed since the open was sent (at least 50 items), verify,
    close.  Returns the timed records, with the server's CPU time during
    the open and the stream; "next" is where the plan stopped."""
    sid = "eco%d" % cycle
    recs = {"open": [], "mutate": [], "query": [], "dirty": [], "elapsed": {"mutate": [], "query": []},
            "failed": 0, "attempted": 0, "ops": [], "verify": None}

    def call(req):
        reply, t0, t1 = conn.rpc(json.dumps(req))
        recs["attempted"] += 1
        ok, elapsed, _, d = parse_reply(reply)
        if not ok:
            recs["failed"] += 1
        return ok, t1 - t0, elapsed, d

    t_start = time.perf_counter()
    cpu0 = server.cpu_s()
    ok, lat, _, _ = call({"id": sid + "-open", "kind": "open", "session": sid, "circuit": circuit,
                          "sizes": 4, "ratio": 1.5})
    recs["open"].append(lat)
    cpu1 = server.cpu_s()
    recs["open_cpu"] = cpu1 - cpu0
    recs["open_rss"] = server.peak_rss_mb()
    t_stream = time.perf_counter()
    i = start
    while (i < start + 50 or time.perf_counter() - t_start < seconds) and i < len(plan):
        item = dict(plan[i], id="%s-%d" % (sid, i), session=sid)
        ok, lat, elapsed, d = call(item)
        kind = item["kind"]
        recs[kind].append(lat * 1000.0)
        recs["elapsed"][kind].append(elapsed)
        recs["ops"].append(lat * 1000.0)
        if ok and kind == "mutate":
            recs["dirty"].append(d["result"]["dirty_gates"])
        i += 1
    recs["window"] = time.perf_counter() - t_stream
    recs["cpu"] = server.cpu_s() - cpu1
    recs["next"] = i
    ok, _, _, d = call({"id": sid + "-verify", "kind": "verify", "session": sid})
    if ok:
        v = d["result"]
        recs["verify"] = v
        if not (v["identical"] and v["mismatches"] == 0):
            recs["failed"] += 1
    call({"id": sid + "-close", "kind": "close", "session": sid})
    return recs


# ---------- workloads, untraced ----------

def report_circuits(props):
    for c in props["circuits"]:
        report("inputs: %s: %d gates, %d nets, depth %d, %d bytes, %d endpoints"
               % (os.path.basename(c["path"]), c["gates"], c["nets"], c["depth"], c["bytes"],
                  c["endpoints"]))


def serve_setup(workload, seed):
    d = os.path.join(WORK, workload)

    def make():
        fresh_dir(workload)
        props = json.loads(pb("gen", workload, seed, d))
        if workload == "eco_session":
            # one copy per session, so every open parses a file the
            # server has not cached yet
            src = props["circuits"][0]["path"]
            for k in range(ECO_CYCLES):
                shutil.copyfile(src, os.path.join(d, "eco-%d.bench" % k))
        log = open(os.path.join(d, "server.log"), "wb")
        server = Server(os.path.join(d, "s.sock"), log)
        log.close()
        return Setup(props=props, server=server, dir=d)

    return timed_setup(make, SETUPS[workload])


def not_gated(name, value, unit, n):
    report("  %-20s %12.4f %-4s n=%d  (wall time, not gated)" % (name, value, unit, n))


def serve_mix(seed, seconds):
    setup, setup_times = serve_setup("serve_mix", seed)
    try:
        circuits = [os.path.abspath(c["path"]) for c in setup.props["circuits"]]
        mix = Mix(seed, circuits)
        w = drive_mix(setup.server, mix, seconds)
    finally:
        setup.server.stop()
    warm, records = w.warm, w.records
    failed, distinct = check_mix(warm + records)
    lat = [(t1 - t0) * 1000.0 for _, _, t0, t1, _, _ in records]
    by_kind = {}
    first = []  # the first send of each key in the window: the server computes it
    seen = {key_of(r[1]) for r in warm}
    repeats = 0
    for _, req, t0, t1, _, pair in sorted(records, key=lambda r: r[2]):
        by_kind.setdefault(req["kind"], []).append((t1 - t0) * 1000.0)
        k = key_of(req)
        if k not in seen:
            first.append((t1 - t0) * 1000.0)
        elif not pair:
            repeats += 1
        seen.add(k)
    pairs = sum(1 for r in records if r[5]) // 2
    report_circuits(setup.props)
    report("inputs: %d stand-ins; warm-up %d requests in %.2f s; window %d requests in %d decks, "
           "%d distinct keys in all, %.1f%% exact repeats, %d concurrent same-key pairs; kinds %s"
           % (len(circuits), len(warm), warm[-1][3] - warm[0][2], len(records),
              sum(mix.go.values()), distinct, 100.0 * repeats / len(records), pairs,
              {k: len(v) for k, v in sorted(by_kind.items())}))
    for k, xs in sorted(by_kind.items()):
        report("  %-8s p50 %9.3f ms  p90 %9.3f ms  n=%d  (not gated)"
               % (k, bstats.percentile(xs, 50), bstats.percentile(xs, 90), len(xs)))
    answered = sum(1 for r in records if r[1]["id"] not in failed)
    not_gated("latency_p50_ms", bstats.percentile(lat, 50), "ms", len(lat))
    not_gated("latency_p90_ms", bstats.percentile(lat, 90), "ms", len(lat))
    not_gated("full_p50_ms", bstats.median(first), "ms", len(first))
    not_gated("throughput_rps", answered / w.wall, "1/s", len(records))
    m = {
        "setup_s": (bstats.median(setup_times), "s", len(setup_times)),
        "cpu_ms_per_request": (w.cpu * 1000.0 / answered, "ms", answered),
        "full_cpu_ms": (w.warm_cpu * 1000.0, "ms", len(warm)),
        "peak_rss_mb": (w.rss, "MB", 1),
    }
    return m, len(warm) + len(records), len(failed)


def eco_session(seed, seconds):
    setup, setup_times = serve_setup("eco_session", seed)
    plan = read_plan(setup.dir)
    cycles = []
    try:
        conn = Conn(setup.server.sock)
        start = 0
        for k in range(ECO_CYCLES):
            # each session continues the plan where the last one stopped,
            # so a run covers as many distinct (and rare large-cone)
            # mutations as it has time for
            path = os.path.abspath(os.path.join(setup.dir, "eco-%d.bench" % k))
            cycles.append(drive_session(setup.server, conn, path, plan, start, seconds / ECO_CYCLES, k))
            start = cycles[-1]["next"]
        conn.close()
    finally:
        setup.server.stop()
    # the heap a run ends with grows with how many mutations the host
    # got through, so the peak RSS is read after the first open
    rss = cycles[0]["open_rss"]
    cat = {k: [x for c in cycles for x in c[k]] for k in ("open", "mutate", "query", "ops", "dirty")}
    window = sum(c["window"] for c in cycles)
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    for c in cycles:
        if c["verify"] is None or not c["verify"]["identical"]:
            report("verify failed: %s" % c["verify"])
    ops = cat["ops"]
    dirty = cat["dirty"]
    counts = {}
    for item in plan[:start]:
        k = item.get("op", item["kind"])
        counts[k] = counts.get(k, 0) + 1
    report_circuits(setup.props)
    report("inputs: c100k profile, seed %d; plan mix %s; dirty cone p50 %.0f p90 %.0f max %d gates; "
           "verify %s" % (seed, counts, bstats.percentile(dirty, 50), bstats.percentile(dirty, 90),
                          max(dirty), [c["verify"] and c["verify"]["identical"] for c in cycles]))
    for k in ("mutate", "query"):
        xs = cat[k]
        report("  %-8s p50 %9.3f ms  p90 %9.3f ms  n=%d  (not gated)"
               % (k, bstats.percentile(xs, 50), bstats.percentile(xs, 90), len(xs)))
    opens = [x * 1000.0 for x in cat["open"]]
    not_gated("latency_p50_ms", bstats.percentile(ops, 50), "ms", len(ops))
    not_gated("latency_p90_ms", bstats.percentile(ops, 90), "ms", len(ops))
    not_gated("full_p50_ms", bstats.median(opens), "ms", len(opens))
    not_gated("throughput_rps", len(ops) / window, "1/s", len(ops))
    m = {
        "setup_s": (bstats.median(setup_times), "s", len(setup_times)),
        "cpu_ms_per_request": (sum(c["cpu"] for c in cycles) * 1000.0 / len(ops), "ms", len(ops)),
        "full_cpu_ms": (bstats.median([c["open_cpu"] * 1000.0 for c in cycles]), "ms", len(cycles)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    return m, attempted, failed


UNTRACED = {"serve_mix": serve_mix, "eco_session": eco_session}


# ---------- traced per-layer run ----------

# deterministic work counts the two helper runs must agree on exactly
COUNTS = ("netlist.parse_minor_words", "spsta.moments_minor_words", "lint.findings",
          "ssta.dirty_gates", "server.replay_memo_hits", "server.replay_memo_misses")

CLI_COMMANDS = (("ssta", ["ssta"]), ("analyze", ["analyze"]), ("static", ["static", "--json"]),
                ("lint", ["lint"]))

# CLI command -> the helper's spans covering the same work
CLI_SPANS = {"ssta": ("netlist.parse_s", "ssta.analyze_s"),
             "analyze": ("netlist.parse_s", "spsta.moments_s"),
             "static": ("netlist.parse_s", "analysis.static_s"),
             "lint": ("netlist.parse_s", "lint.check_circuit_s")}


def probe_requests(path, standins):
    """eco_session's analysis traffic for the traced run, each request
    sent twice (the second an exact repeat): analyze, ssta and static on
    its circuit; mc and size, which take minutes at the protocol's
    defaults on 100k gates, on the stand-ins serve_mix sends them to."""
    reqs = []
    for tag in ("first", "again"):
        for kind in ("analyze", "ssta", "static"):
            reqs.append({"id": "%s-%s" % (tag, kind), "kind": kind, "circuit": path})
        for n, p in enumerate(standins):
            for kind in ("mc", "size"):
                reqs.append({"id": "%s-%d-%s" % (tag, n, kind), "kind": kind, "circuit": p})
    return reqs


def traced(workload, seed, seconds):
    setup, setup_times = serve_setup(workload, seed)
    d = setup.dir
    server = setup.server
    paths = [os.path.abspath(c["path"]) for c in setup.props["circuits"]]
    client_spans = []
    m = {}
    try:
        # analysis traffic through the real server: the mix itself, or
        # the workload's commands as requests
        if workload == "serve_mix":
            mix = Mix(seed, paths)
            w = drive_mix(server, mix, min(seconds, 8))
            records = w.warm + w.records
            requests = [r[1] for r in sorted(records, key=lambda r: r[2])]
        else:
            sd = os.path.join(d, "standins")
            os.makedirs(sd)
            standins = [os.path.abspath(c["path"])
                        for c in json.loads(pb("gen", "serve_mix", seed, sd))["circuits"]]
            conn = Conn(server.sock)
            records = []
            for req in probe_requests(paths[0], standins):
                reply, t0, t1 = conn.rpc(json.dumps(req))
                records.append((0, req, t0, t1, reply, False))
            conn.close()
            requests = [r[1] for r in records]
        conn = Conn(server.sock)
        stats, _, _ = conn.rpc(json.dumps({"id": "stats", "kind": "stats"}))
        stats = json.loads(stats)["result"]["cache"]["results"]
        # an ECO session on the circuit the plan was drawn for: the
        # workload's last one
        plan = read_plan(d)
        sess = drive_session(server, conn, paths[-1], plan[:500], 0, 60, 99)
        conn.close()
    finally:
        server.stop()
    failed = sum(1 for r in records if not parse_reply(r[4])[0]) + sess["failed"]
    attempted = len(records) + sess["attempted"]
    elapsed, wait = [], []
    origin = min(r[2] for r in records)
    for n, (c, req, t0, t1, reply, _) in enumerate(records):
        ok, el, _, _ = parse_reply(reply)
        if ok:
            elapsed.append(el)
            wait.append((t1 - t0) * 1000.0 - el)
        client_spans.append({"name": "client." + req["kind"], "cat": "client", "ph": "X",
                             "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6, "pid": 2,
                             "tid": c + 1, "args": {"span_id": n + 1, "parent_id": 0,
                                                    "request_id": req["id"],
                                                    "server_elapsed_ms": el if ok else None}})
    distinct = len({key_of(r) for r in requests})
    m["server.elapsed_ms"] = (bstats.median(elapsed), "ms", len(elapsed))
    m["server.wait_ms"] = (bstats.median(wait), "ms", len(wait))
    m["server.memo_hit_ratio"] = (stats["hits"] / (stats["hits"] + stats["misses"]), "ratio",
                                  stats["hits"] + stats["misses"])
    m["server.duplicate_computes"] = (stats["misses"] - distinct, "count", stats["misses"])
    for k in ("mutate", "query"):
        xs = sess["elapsed"][k]
        m["session.%s_elapsed_ms" % k] = (bstats.median(xs), "ms", len(xs))

    # the helper's in-process layer calls on the same inputs, twice:
    # the work counts must repeat exactly
    with open(os.path.join(d, "requests.jsonl"), "w") as f:
        for r in requests:
            f.write(json.dumps(r) + "\n")
    runs = []
    for k in range(2):
        out = os.path.join(d, "pb-trace-%d.json" % k)
        runs.append(json.loads(pb("trace", workload, seed, d, out)))
    for name, facts in runs[0]["inputs"].items():
        report("inputs: %s: %d gates; Static.run: %d unobservable gates (%.1f%%), "
               "%d reconvergent regions, %d constants"
               % (name, facts["gates"], facts["unobservable_gates"],
                  100.0 * facts["unobservable_gates"] / facts["gates"],
                  facts["reconvergent_regions"], facts["constants"]))
    a, b = [r["metrics"] for r in runs]
    for k in COUNTS:
        if a[k] != b[k]:
            failed += 1
            report("count %s differs across traced runs: %r vs %r" % (k, a[k], b[k]))
    attempted += len(COUNTS)
    units = {"_s": "s", "_ms": "ms", "_us": "us", "_words": "words"}
    for k, v in a.items():
        if k.startswith("trace.") or k.startswith("server.execute_ms."):
            unit = "s" if k.endswith("_s") else "ms"
        else:
            unit = next((u for suf, u in units.items() if k.endswith(suf)), "count")
        m[k] = (v, unit, 1)

    # one untraced invocation of each CLI command per file: what the
    # helper's spans of the same work do not account for
    wall = 0.0
    for p in paths:
        for _, argv in CLI_COMMANDS:
            with open(os.path.join(d, "cli-out.txt"), "wb") as out:
                t0 = time.perf_counter()
                run([SPSTA] + argv[:1] + [p] + argv[1:], 170, stdout=out)
                wall += time.perf_counter() - t0
    spans = sum(a[s] for cmd in CLI_SPANS for s in CLI_SPANS[cmd])
    m["cli.unaccounted_s"] = (wall - spans, "s", len(paths) * len(CLI_COMMANDS))

    # one trace file: the helper's spans (pid 1) and the client's (pid 2)
    with open(os.path.join(d, "pb-trace-0.json")) as f:
        events = json.load(f)["traceEvents"]
    events += client_spans
    trace_path = os.path.join(d, "trace.json")
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events}, f)
    for layer, us in sorted(bstats.self_time_by_layer(events).items()):
        m["self.%s_s" % layer] = (us / 1e6, "s", 1)
    report("trace: %s (%d events); set-up %.3f s" % (trace_path, len(events),
                                                      bstats.median(setup_times)))
    return m, attempted, failed


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if it is there."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        doc = json.load(f)
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, args.seconds)
        else:
            metrics, attempted, failed = UNTRACED[args.workload](args.seed, args.seconds)
    finally:
        for p in list(CHILDREN):
            if p.poll() is None:
                p.kill()
            p.wait()
    if not args.trace:
        metrics["ok_share"] = (1.0 - bstats.failed_share(attempted, failed), "share", attempted)
    declared = declared_metrics(args.trace)
    if declared is not None and set(metrics) != declared:
        die("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
            % (sorted(declared - set(metrics)), sorted(set(metrics) - declared)))
    for name, (v, unit, n) in sorted(metrics.items()):
        print("%-28s %14.6f %-6s" % (name, v, unit) + ("" if args.trace else " n=%d" % n))
    print("correct: %s (%d of %d operations failed)" % (failed == 0, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))


if __name__ == "__main__":
    main()
