"""pmlattice benchmark: real CLI invocations, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload random-facial --seed 7 --seconds 52 --trace 0

Each invocation is one fresh ``python3 -m pmlattice.cli`` process (``src``
on ``PYTHONPATH``), run as a closed loop with one client: the next command
starts when the previous one has exited.  That is how the tool is used at a
desk, and it keeps one of the machine's cores free for the harness.  A run
sets the workload's GraphFiles up ``SETUP_REPEATS`` times, then runs
sweeps of the workload's whole invocation list, each in a seed-shuffled
order, until the next sweep would end after ``--seconds`` (but at least
``MIN_SWEEPS`` sweeps).

Every invocation is checked against ``expected.json``: its exit code, the
sha256 of its report, and a stderr free of tracebacks.  An invocation fails
on a timeout, an unexpected exit code, a traceback or a hash mismatch.

``--trace 0`` prints the end-to-end metrics (tracing off):

- ``sweep_s``: wall time of the whole invocation list, each invocation at
  its fastest in the run (process start included); a timeout counts at its
  limit;
- ``peak_rss_mb``: largest max-RSS of any invocation (``os.wait4`` rusage);
- ``setup_s``: median time to write the workload's GraphFiles (one child
  process per set-up, so package import is included).

``--trace 1`` runs each invocation untraced and then under ``tracer.py``,
and prints the per-layer metrics of ``LAYER_METRICS`` per sweep; the
per-command breakdown is in the detail line.  ``trace.overhead_frac`` is
the traced wall time over the untraced one, minus 1.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the detail record: provenance, every invocation's
wall time, exit code and sha256 (so runs on two commits can be diffed),
the failed fraction, and per-invocation wall time statistics:
``cmd_p50_ms``, the median over the list of each invocation's fastest time,
and ``cmd_tail_ms``, the highest percentile of all invocation times with at
least ten above it (with its percentile and sample count).  Neither is an
end-to-end metric: over ten runs ``cmd_p50_ms`` spread by 25-31 % (quartile
distance over median), ``sweep_s``, which sums the whole list, by 21 %.

Each invocation's fastest time stands for its cost because the speed of a
shared 2-vCPU VM (2.1 GHz Xeon) drifts for tens of seconds at a time: over
four minutes, 30-second medians of one fixed CPU loop ranged 0.118-0.187 s
while 30-second minima ranged 0.105-0.120 s.  Every repeat of an invocation
sits in a different sweep, so one fast stretch in a run is enough.  Slow
stretches can outlast a whole run (runs of 20 to 52 s came out 25-45 %
slow for minutes at a time), so there are two workloads with long runs
rather than more workloads with short ones.

Graph inputs do not depend on ``--seed``; the seed orders the invocations.
Relabelling a graph moves the cost of early-exit scans far beyond any
regression bound (``bvn`` on ``random_matching_covered(7, 16, 5)`` took
3.4 s to 35 s over four vertex relabellings, and 50 % longer under one
edge-id shuffle), so seeded inputs would measure the relabelling, not the
code.  Fixed inputs also let every seed be checked byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
SETUP_REPEATS = 9
# Untraced, each invocation's fastest time is taken over at least this
# many repeats.
MIN_SWEEPS = 2
# No run may pass this many seconds of invocations, whatever the limits say.
RUN_HARD_LIMIT_S = 140.0

GRAPH_COMMANDS = (
    ("pm", "count"), ("pm", "list"),
    ("polytope", "dim"), ("polytope", "facets"), ("polytope", "codim2"),
    ("cuts", "classify"), ("cuts", "tight"), ("cuts", "separating"), ("cuts", "facet"),
    ("decompose",), ("bvn",), ("intersect",),
    ("basis", "integral"), ("basis", "lattice"), ("characterize",), ("verify", "all"),
)
FACIAL_COMMANDS = (
    ("polytope", "facets"), ("polytope", "codim2"), ("cuts", "classify"), ("bvn",),
    ("intersect",), ("basis", "integral"), ("basis", "lattice"), ("verify", "all"),
)


@dataclass(frozen=True)
class Invocation:
    graph: str
    command: tuple[str, ...]
    extra: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return " ".join((self.graph,) + self.command + self.extra)


@dataclass(frozen=True)
class Workload:
    graphs: dict            # graph id -> spec for graphs.py
    invocations: tuple      # of Invocation
    limit_s: float          # per-invocation time limit


def _cross(graphs, commands, extra=()) -> tuple[Invocation, ...]:
    return tuple(Invocation(g, c, tuple(extra)) for g in graphs for c in commands)


WORKLOADS: dict[str, Workload] = {
    # Thousands of small exact-rank calls behind the odd-shore face scans.
    # Generator seed 8 gives a 12-vertex graph whose sweep fits a run
    # (about 5 s; seed 7's takes about 20 s).
    "random-facial": Workload(
        {"random-v12-s8": ["random", 8, 12, 3]},
        _cross(("random-v12-s8",), FACIAL_COMMANDS), 60.0),
    # Few large calls instead of many small ones: matching enumeration up to
    # K14's 135,135 matchings, two rank calls on tall 105 x 28 matrices
    # (polytope dim on K8), HNF over K10's 945 matching vectors, and the
    # 2^(n-1) odd-shore scans of Moebius ladders past the vertex cap (18
    # vertices a brace, 20 a brick), which pass the cap explicitly.
    "dense-scan": Workload(
        {**{f"K{n}": ["complete", n] for n in (8, 10, 12, 14)},
         "mobius-18": ["mobius", 18], "mobius-20": ["mobius", 20]},
        _cross(("K10", "K12"), (("pm", "count"), ("pm", "list")))
        + _cross(("K14",), (("pm", "count"),))
        + _cross(("K8",), (("polytope", "dim"),))
        + _cross(("K10",), (("characterize",),))
        + _cross(("mobius-18", "mobius-20"), (("decompose",),), ("--max-vertices", "20"))
        + _cross(("mobius-18",), (("polytope", "dim"),), ("--max-vertices", "20")), 60.0),
    # Not a BENCHMARK.json workload: the harness self-test on k4 and prism.
    "smoke": Workload(
        {g: ["corpus", g] for g in ("k4", "prism")},
        _cross(("k4", "prism"), GRAPH_COMMANDS), 20.0),
}

# Invocations left out of the workloads because they do not finish at the
# parent commit; recorded in every result's provenance.
EXPECTED_TIMEOUTS = {
    "K12 polytope dim": "does not finish in 60 s",
    "random-v16-s7 polytope facets --max-vertices 16": "does not finish in 300 s",
}

LAYERS = ("cli", "corpus", "graph", "matchings", "linalg", "polytope",
          "decomposition", "basis", "verifier")
PROPERTY_IDS = ("P-DIM", "P-UNCROSS", "P-BVNCONTRACT", "P-BRICKCOUNT", "P-NEARBRICK",
                "P-BARRIER", "P-FDILIFT", "P-EQUIV", "P-TRIPLE", "P-LEMMA",
                "P-LEMMA-COUNT", "P-2X")
_CALLS = {
    "matchings.enumerate.calls": "matchings.enumerate_perfect_matchings",
    "linalg.rank.calls": "linalg.rank",
    "linalg.hnf.calls": "linalg.hnf",
    "polytope.face_members.calls": "polytope.face_members",
    "polytope.members_dim.calls": "polytope.members_dim",
    "polytope.is_separating.calls": "polytope.is_separating",
    "graph.boundary.calls": "graph.boundary",
    "graph.contract_shore.calls": "graph.contract_shore",
    "decomposition.find_tight_cut.calls": "decomposition.find_tight_cut",
    "basis.merge_bases.calls": "basis.merge_bases",
}
_SELF_MS = {f"linalg.{f}.self_ms": f"linalg.{f}"
            for f in ("rank", "affine_dim", "hnf", "saturation", "snf")}
_COUNTERS = {
    "matchings.enumerate.matchings": "matchings.enumerate.matchings",
    "linalg.rank.rows": "linalg.rank.rows",
    "graph.odd_shores.shores": "graph.odd_shores.items",
    "decomposition.nodes": "decomposition.nodes",
}
_HIT_RATIOS = {
    "matchings.enumerate.hit_ratio": "matchings.enumerate_perfect_matchings",
    "polytope.face_members.hit_ratio": "polytope.face_members",
    "polytope.members_dim.hit_ratio": "polytope.members_dim",
}
LAYER_METRICS: dict[str, str] = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{name: "count" for name in _CALLS},
    **{name: "ms" for name in _SELF_MS},
    **{name: "count" for name in _COUNTERS},
    **{name: "ratio" for name in _HIT_RATIOS},
    **{f"verifier.{pid}.ms": "ms" for pid in PROPERTY_IDS},
    "cache.entries": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Result:
    id: str
    wall_s: float
    exit: int | None        # None on timeout
    rss_kb: int
    sha256: str
    error: str | None       # why the invocation failed, or None


def _spawn(argv: list[str], env: dict, out_path: str, err_path: str,
           limit_s: float) -> tuple[float, int | None, int]:
    """Run one process to completion or its limit: (wall s, exit, max-RSS KB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        finished = select.select([pidfd], [], [], limit_s)[0]
        if not finished:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:   # interrupted, for instance by SIGTERM: leave no child
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    if not finished:
        return limit_s, None, usage.ru_maxrss
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


class Runner:
    """Runs invocations of one workload and checks them."""

    def __init__(self, root: str, work_dir: str, workload: Workload, expected: dict):
        self.root = root
        self.work_dir = work_dir
        self.workload = workload
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.hard_deadline = time.perf_counter() + RUN_HARD_LIMIT_S

    def graph_path(self, gid: str) -> str:
        return os.path.join(self.work_dir, gid + ".json")

    def setup(self) -> float:
        argv = [sys.executable, os.path.join(BENCH_DIR, "graphs.py"), self.work_dir,
                json.dumps(self.workload.graphs)]
        start = time.perf_counter()
        subprocess.run(argv, env=self.env, cwd=self.root, check=True)
        return time.perf_counter() - start

    def run(self, inv: Invocation, trace_path: str | None = None) -> Result:
        prefix = ([os.path.join(BENCH_DIR, "tracer.py"), trace_path] if trace_path
                  else ["-m", "pmlattice.cli"])
        argv = [sys.executable, *prefix, *inv.command, "--input", self.graph_path(inv.graph),
                *inv.extra]
        out_path = os.path.join(self.work_dir, "stdout")
        err_path = os.path.join(self.work_dir, "stderr")
        limit = min(self.workload.limit_s, max(0.5, self.hard_deadline - time.perf_counter()))
        wall, code, rss = _spawn(argv, self.env, out_path, err_path, limit)
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        want = self.expected.get(inv.id)
        if code is None:
            error = f"timeout after {limit:.1f} s"
        elif b"Traceback" in stderr:
            error = "traceback on stderr"
        elif want is None:
            error = "no expected hash"
        elif code != want["exit"]:
            error = f"exit {code}, expected {want['exit']}"
        elif digest != want["sha256"]:
            error = "report sha256 differs from expected"
        else:
            error = None
        return Result(inv.id, wall, code, rss, digest, error)


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return {"value": ordered[k], "percentile": round(100.0 * (k + 1) / len(ordered), 2),
            "samples": len(ordered)}


def _sum_traces(traces: list[dict]) -> tuple[dict, dict, dict]:
    funcs: dict[str, dict] = {}
    counters: dict[str, int] = {}
    caches: dict[str, dict] = {}
    for t in traces:
        for name, f in t["funcs"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_ns": 0})
            acc["calls"] += f["calls"]
            acc["self_ns"] += f["self_ns"]
        for name, n in t["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, c in t["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            for key in acc:
                acc[key] += c[key]
    return funcs, counters, caches


def layer_metrics(traces: list[dict], sweeps: int) -> dict[str, float]:
    """Per-layer metrics from tracer output, per sweep."""
    funcs, counters, caches = _sum_traces(traces)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(f["self_ns"] for name, f in funcs.items()
                                    if name.startswith(layer + ".")) / 1e6
    for metric, fn in _CALLS.items():
        m[metric] = funcs.get(fn, {}).get("calls", 0)
    for metric, fn in _SELF_MS.items():
        m[metric] = funcs.get(fn, {}).get("self_ns", 0) / 1e6
    for metric, counter in _COUNTERS.items():
        m[metric] = counters.get(counter, 0)
    for pid in PROPERTY_IDS:
        m[f"verifier.{pid}.ms"] = counters.get(f"verifier.{pid}.ns", 0) / 1e6
    m["cache.entries"] = sum(c["currsize"] for c in caches.values())
    m = {k: v / sweeps for k, v in m.items()}
    for metric, fn in _HIT_RATIOS.items():
        c = caches.get(fn, {"hits": 0, "misses": 0})
        m[metric] = c["hits"] / (c["hits"] + c["misses"]) if c["hits"] + c["misses"] else 0.0
    return m


def _commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "pmlattice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 expected: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    workload = WORKLOADS[name]
    provenance = {
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "commit": _commit(root), "src_sha256": _src_digest(root),
        "loadavg_before": os.getloadavg(), "seed": seed, "seconds": seconds,
        "trace": trace, "limit_s": workload.limit_s,
        "expected_timeouts_at_parent": EXPECTED_TIMEOUTS,
    }
    work_dir = os.path.join(root, ".bench_build", "perfbench", f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(root, work_dir, workload, expected)
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        rng = random.Random(seed)
        results: list[Result] = []
        traced: list[Result] = []
        traces: dict[str, list[dict]] = {}
        sweeps: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            order = list(workload.invocations)
            rng.shuffle(order)
            start = time.perf_counter()
            for inv in order:
                results.append(runner.run(inv))
                if trace:
                    trace_path = os.path.join(work_dir, f"trace-{len(traced)}.json")
                    traced.append(runner.run(inv, trace_path))
                    if os.path.exists(trace_path):   # not after a timeout
                        with open(trace_path) as fh:
                            traces.setdefault(inv.id, []).append(json.load(fh))
            sweeps.append(time.perf_counter() - start)
            now = time.perf_counter()
            if now > runner.hard_deadline:
                break
            if len(sweeps) >= (1 if trace else MIN_SWEEPS) and now + sweeps[-1] > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checked = results + traced
    failures = [r for r in checked if r.error]
    best: dict[str, float] = {}
    for r in results:
        best[r.id] = min(best.get(r.id, r.wall_s), r.wall_s)
    detail = {
        "workload": name, "provenance": provenance,
        "sweeps": len(sweeps), "sweep_walls_s": sweeps, "setup_walls_s": setups,
        "failed_frac": len(failures) / len(checked),
        "cmd_p50_ms": statistics.median(best.values()) * 1e3,
        "cmd_tail_ms": _tail([r.wall_s * 1e3 for r in results]),
        "invocations": [{"id": r.id, "traced": i >= len(results), "wall_s": r.wall_s,
                         "exit": r.exit, "rss_kb": r.rss_kb, "sha256": r.sha256,
                         "error": r.error} for i, r in enumerate(checked)],
    }
    if trace:
        n = len(sweeps)
        metrics = layer_metrics([t for ts in traces.values() for t in ts], n)
        untraced_s = sum(r.wall_s for r in results)
        metrics["trace.overhead_frac"] = sum(r.wall_s for r in traced) / untraced_s - 1.0
        detail["per_command"] = {inv_id: layer_metrics(ts, n) for inv_id, ts in traces.items()}
        units = LAYER_METRICS
    else:
        metrics = {
            "sweep_s": sum(best.values()),
            "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = {"sweep_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    provenance["loadavg_after"] = os.getloadavg()
    line = {"correct": not failures, "attempted": len(checked), "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return line, detail


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=52.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like SIGINT, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pmlattice", "cli.py")):
        print("perfbench: run from the root of a pmlattice checkout "
              "(src/pmlattice/cli.py not found)", file=sys.stderr)
        return 2
    # Compile the package once, so no timed process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                   check=True)
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                root, expected)
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
