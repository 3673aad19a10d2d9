"""fermicorr benchmark: one workload, fresh processes, checked outputs.

    python3 bench/run.py --workload {sweep,points,oracle-check,hierarchy}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from the checkout's
``src``. Set-up is timed first; then the workload runs whole rounds of jobs,
each in a fresh interpreter (``worker.py``), as long as the next round should
end within S seconds (at least one round); then every output is checked. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The run record
(environment, both metric sets, problems found) and, when traced, every span
go to ``bench/out/``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import WRAPPED  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

SETUP_PROBES = 9
# Every job must end before the run's hard limit, so the run exits in time.
RUN_LIMIT_S = 170.0

# Default sweep (`fermicorr sweep` without options); pinned so a change of
# the defaults shows as a check failure.
SWEEP_XI = np.linspace(0.0, 2.0, 401)
SWEEP_COUPLINGS = (0.02, 0.04, 0.06)
SWEEP_R_BAR = math.pi / 4.0
SWEEP_CUTOFF = 300.0
SWEEP_SAMPLES = 4  # random xi checked against the reference, plus xi = 1

# points: one point per cutoff in each round, in seeded order. Eleven cutoffs
# cycle more mode grids than fermicorr's 8-entry grid cache holds; an odd
# count puts the median latency inside one cutoff's group of points.
POINT_CUTOFFS = (50.0, 70.0, 100.0, 140.0, 200.0, 250.0, 300.0, 400.0, 500.0, 700.0, 1000.0)
# The assembled state stays positive below K = 0.0589 at cutoff 1000 (the
# lowest bound over these cutoffs and xi in (0, 2]); see README.
POINT_COUPLING = (0.005, 0.04)

HIERARCHY_BATCH = 10_000  # criterion 1's loop, one batch per process
# Latency samples are per-state means over blocks of states: a single state
# takes ~0.3 ms, so its own tail would measure scheduler hiccups.
HIERARCHY_BLOCK = 500
HIERARCHY_SAMPLES = 8  # states per run checked against the definitions


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment():
    git = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git = proc.stdout.strip() or None
    return {
        "git": git,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def setup_seconds(env):
    """Interpreter launch until `fermicorr.cli` is imported, in a fresh process."""
    code = "import fermicorr.cli, time; print(repr(time.perf_counter()), fermicorr.cli.__file__)"
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"cannot import fermicorr.cli from {SRC}:\n{proc.stderr}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise SystemExit(f"fermicorr.cli imported from {path.strip()}, not from {SRC}")
        samples.append(float(stamp) - start)
    return statistics.median(samples)


# -- workloads: each returns the jobs of one round, and checks the outputs --

class Sweep:
    """The default `fermicorr sweep` into a fresh CSV; an operation is the
    command, an item a CSV row."""

    def round(self, seed, r, tmp):
        out = tmp / f"sweep-{r}.csv"
        return [{"mode": "cli", "params": {"argv": ["sweep", "--out", str(out)]},
                 "ops": 1, "items": len(SWEEP_XI) * len(SWEEP_COUPLINGS), "out": str(out)}]

    def check(self, jobs, seed):
        texts = [Path(j["out"]).read_text() for j in jobs]
        problems = [] if all(t == texts[0] for t in texts) else ["sweep: CSVs of one run differ"]
        rng = np.random.default_rng([seed, 0])
        sample = list(rng.choice(SWEEP_XI[1:], SWEEP_SAMPLES, replace=False)) + [1.0]
        return problems + checks.check_sweep(texts[0], SWEEP_XI, SWEEP_COUPLINGS,
                                             SWEEP_R_BAR, SWEEP_CUTOFF, sample)


class Points:
    """Single `fermicorr state` calls, one per fresh process; an operation
    and an item are one point."""

    def __init__(self):
        self.seen_xi = set()

    def round(self, seed, r, tmp):
        rng = np.random.default_rng([seed, r])
        n = len(POINT_CUTOFFS)
        # stratified xi: each round covers (0, 2] once, in random order
        xis = 2.0 * (rng.permutation(n) + 1.0 - rng.random(n)) / n
        ks = rng.uniform(*POINT_COUPLING, n)
        jobs = []
        for j in rng.permutation(n):
            xi, k, cutoff = float(xis[j]), float(ks[j]), POINT_CUTOFFS[j]
            if xi in self.seen_xi:
                raise SystemExit(f"points: xi {xi!r} drawn twice")
            self.seen_xi.add(xi)
            out = tmp / f"state-{r}-{j}.json"
            argv = ["state", "--xi", repr(xi), "--coupling", repr(k), "--cutoff", repr(cutoff),
                    "--out", str(out)]
            jobs.append({"mode": "cli", "params": {"argv": argv}, "ops": 1, "items": 1,
                         "out": str(out), "point": (xi, k, cutoff)})
        return jobs

    def check(self, jobs, seed):
        problems = []
        for j in jobs:
            doc = json.loads(Path(j["out"]).read_text())
            problems += checks.check_state(doc, *j["point"])
        return problems


class OracleCheck:
    """`fermicorr oracle-check --count 1` per fresh process; an operation
    and an item are one random state (mixed for the three measures, X-shaped
    for the Bell parameter)."""

    def round(self, seed, r, tmp):
        state_seed = 1_000_003 * seed + r
        out = tmp / f"oracle-{r}.json"
        argv = ["oracle-check", "--count", "1", "--seed", str(state_seed), "--out", str(out)]
        return [{"mode": "cli", "params": {"argv": argv}, "ops": 1, "items": 1,
                 "out": str(out), "state_seed": state_seed}]

    def check(self, jobs, seed):
        problems = []
        for j in jobs:
            rep = json.loads(Path(j["out"]).read_text())
            problems += checks.check_oracle_report(rep, 1, j["state_seed"])
        return problems


class Hierarchy:
    """Criterion 1's loop: connected_correlation, geometric_discord and
    negativity on seeded random mixed states made before timing; an operation
    and an item are one state."""

    def round(self, seed, r, tmp):
        first = 1_000_003 * seed + HIERARCHY_BATCH * r
        params = {"first": first, "count": HIERARCHY_BATCH, "block": HIERARCHY_BLOCK}
        return [{"mode": "hierarchy", "params": params, "ops": HIERARCHY_BATCH,
                 "items": HIERARCHY_BATCH}]

    def check(self, jobs, seed):
        from fermicorr.states import random_state

        problems = []
        for j in jobs:
            v = j["result"]["values"]
            problems += checks.check_hierarchy(v["conn"], v["discord"], v["neg"])
        rng = np.random.default_rng([seed, 0])
        for _ in range(HIERARCHY_SAMPLES):
            j = jobs[int(rng.integers(len(jobs)))]
            i = int(rng.integers(HIERARCHY_BATCH))
            v = j["result"]["values"]
            rho = random_state(j["params"]["first"] + i, "mixed")
            problems += checks.check_measures(rho, v["conn"][i], v["discord"][i], v["neg"][i])
        return problems


WORKLOADS = {"sweep": Sweep, "points": Points, "oracle-check": OracleCheck,
             "hierarchy": Hierarchy}


def run_job(job, trace, tmp, env, deadline):
    result = tmp / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(result), "1" if trace else "0",
           job["mode"], json.dumps(job["params"])]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0 or not result.exists():
        return None, (err.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    res = json.loads(result.read_text())
    if res["rc"] != 0:
        return None, f"fermicorr exit {res['rc']}: {err.strip()}"
    return res, None


# -- metrics --

def tail(values):
    """The highest order statistic with at least ten samples above it, and
    never below the median; the maximum when there are fewer than 11."""
    v = sorted(values)
    n = len(v)
    return v[max(n - 11, (n - 1) // 2)] if n >= 11 else v[-1]


def end_to_end(jobs, setup_s):
    """items_per_s counts the time inside the timed calls of fresh processes;
    the latency samples are one per job (a sweep, a point, an oracle state) or,
    on hierarchy, one per block of states."""
    done = [j for j in jobs if j["result"]]
    lat = [x for j in done for x in j["result"]["latencies"]]
    if not lat:
        return {}
    work = sum(j["result"]["elapsed"] for j in done)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (sum(j["items"] for j in done) / work, "items/s"),
        "peak_rss_mb": (max(j["result"]["maxrss_kb"] for j in done) / 1024.0, "MB"),
        "point_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "point_tail_ms": (1e3 * tail(lat), "ms"),
    }


TWO_POINT_SIZE = 1 << 16
TWO_POINT_REPEATS = 41


def two_point_ns():
    """Fixed-array micro-case of the `two_point` kernel, median ns per element."""
    from fermicorr import amplitudes

    two_point = getattr(amplitudes, "two_point", None)
    if two_point is None:
        return None
    dt = np.linspace(0.0, 2.0 * SWEEP_R_BAR, TWO_POINT_SIZE)
    times = []
    for _ in range(TWO_POINT_REPEATS):
        start = time.perf_counter()
        two_point(SWEEP_R_BAR, dt, SWEEP_CUTOFF)
        times.append(time.perf_counter() - start)
    return 1e9 * statistics.median(times) / TWO_POINT_SIZE


class SpanLog:
    """Spans of traced jobs. Each job's spans go to a JSON-lines file as the
    job ends, as ``{"job": i, "spans": [[name, start, end, parent, tag], ...]}``
    (parent indexes the job's own list), and only the sums the per-layer
    metrics need stay in memory."""

    def __init__(self, path):
        self.path = path
        self.durations = {}
        self.first, self.reuse = [], []
        self.self_s = 0.0
        self.absent = set()

    def add(self, i, result):
        spans = result.pop("spans")
        with open(self.path, "a") as fh:
            fh.write(json.dumps({"job": i, "spans": spans}) + "\n")
        self.absent.update(result["absent"])
        for s in spans:
            self.durations.setdefault(s[0], []).append(s[2] - s[1])
        calls = [s for s in spans if s[0] == "amplitudes.compute_amplitudes"]
        for s in calls:  # tag = coupling; the first block runs with a cold cache
            (self.first if s[4] == calls[0][4] else self.reuse).append(s[2] - s[1])
        children = {}
        for s in spans:
            children[s[3]] = children.get(s[3], 0.0) + s[2] - s[1]
        self.self_s += sum(s[2] - s[1] - children.get(k, 0.0)
                           for k, s in enumerate(spans) if s[0] == "cli.main")

    def metrics(self, done):
        """Per-layer metrics in a fixed order. A metric whose spans can no
        longer be recorded, because every name that produced them has left
        the package, is left out."""
        items = sum(j["items"] for j in done) or 1
        gone = {name for _, _, name in WRAPPED} - {
            name for module, attr, name in WRAPPED if f"{module}.{attr}" not in self.absent}
        durations = self.durations

        def total(name):
            return sum(durations.get(name, ()))

        def median(values, scale):
            return scale * statistics.median(values) if values else 0.0

        def per_item(name):
            return len(durations.get(name, ())) / items

        compute, validate, decompose = (
            "amplitudes.compute_amplitudes", "states.validate_state", "states.decompose")
        table = (  # metric, unit, spans it needs, value
            ("amplitudes.compute_s", "s", compute, lambda: total(compute)),
            ("amplitudes.assemble_s", "s", "amplitudes.assemble",
             lambda: total("amplitudes.assemble")),
            ("amplitudes.first_block_ms", "ms", compute, lambda: median(self.first, 1e3)),
            ("amplitudes.reuse_block_ms", "ms", compute, lambda: median(self.reuse, 1e3)),
            ("amplitudes.two_point_ns", "ns", None, two_point_ns),
            ("measures.report_s", "s", "measures.report", lambda: total("measures.report")),
            *((f"measures.{m}_us", "us", f"measures.{m}",
               lambda m=m: median(durations.get(f"measures.{m}"), 1e6))
              for m in ("connected_correlation", "geometric_discord", "negativity")),
            ("states.validate_calls", "count/item", validate, lambda: per_item(validate)),
            ("states.decompose_calls", "count/item", decompose, lambda: per_item(decompose)),
            ("states.validate_s", "s", validate, lambda: total(validate)),
            ("states.decompose_s", "s", decompose, lambda: total(decompose)),
            ("states.random_state_s", "s", "states.random_state",
             lambda: total("states.random_state")),
            *((f"oracles.{m}_s", "s", f"oracles.{fn}", lambda fn=fn: total(f"oracles.{fn}"))
              for m, fn in (("chsh", "chsh_gridopt"), ("maxcorr", "maxcorr_bruteforce"),
                            ("discord", "discord_bruteforce"),
                            ("negativity_eig", "negativity_eig"))),
            ("cli.self_s", "s", "cli.main", lambda: self.self_s),
            ("cli.write_csv_s", "s", "cli.write_csv", lambda: total("cli.write_csv")),
            ("cli.output_bytes", "bytes/item", None,
             lambda: sum(os.path.getsize(j["out"]) for j in done if "out" in j) / items),
        )
        out = {}
        for metric, unit, needs, value in table:
            v = None if needs in gone else value()
            if v is not None:
                out[metric] = (v, unit)
        return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    launched = time.perf_counter()
    hard_limit = launched + RUN_LIMIT_S

    if not (SRC / "fermicorr" / "cli.py").is_file():
        raise SystemExit(f"no fermicorr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    env = child_env()
    setup_s = setup_seconds(env)

    seed = args.seed % 2**31  # numpy seeds must be non-negative
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = SpanLog(OUT / f"{stem}-spans.jsonl")
    spans.path.unlink(missing_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    jobs, errors = [], []
    try:
        start = time.perf_counter()
        r = 0
        while True:
            for job in workload.round(seed, r, tmp):
                job["result"], err = run_job(job, args.trace, tmp, env, hard_limit)
                if err:
                    errors.append(err)
                elif args.trace:
                    spans.add(len(jobs), job["result"])
                jobs.append(job)
            r += 1
            # start another round only if it should end within the run length
            elapsed = time.perf_counter() - start
            if elapsed * (r + 1) / r > args.seconds:
                break
        timed_s = time.perf_counter() - start
        done = [j for j in jobs if j["result"]]
        problems = workload.check(done, seed) if done else ["no operation succeeded"]
        layers = spans.metrics(done) if args.trace else {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(j["ops"] for j in jobs)
    failed = sum(j["ops"] for j in jobs if not j["result"])
    e2e = end_to_end(jobs, setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "rounds": r,
        "items": sum(j["items"] for j in jobs if j["result"]),
        "attempted": attempted, "failed": failed, "errors": errors[:10],
        "job_s": [j["result"]["elapsed"] if j["result"] else None for j in jobs],
        "problems": problems, "absent": sorted(spans.absent),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "setup_s": setup_s, "timed_s": timed_s, "wall_s": time.perf_counter() - launched,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    for e in errors[:5]:
        print("OPERATION FAILED:", e, file=sys.stderr)
    print("env", json.dumps(record["env"]))
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
