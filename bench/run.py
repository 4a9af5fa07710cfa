#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `quandles` command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ball-build --seed 0 --seconds 36 --trace 0

A workload is a fixed list of CLI jobs (see jobs.py).  Each job is a fresh
`python -m quandles` child process with `src/` on PYTHONPATH; children run
one at a time.  Each job is timed from outside, its CPU time and peak RSS
come from `os.wait4`, and its output is checked against reference.json.
The job list is repeated until the next job would overrun `--seconds`;
every job's figures are medians over its runs.

With `--trace 1` each pass runs every job twice, plainly and through
trace_child.py, and the per-layer metrics come from the traced spans.

Prints a readable report and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  Per-run details (timings of
every job, exact counts, the run environment) go to
bench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from jobs import WORKLOADS, Job, digest, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

JOB_TIMEOUT_S = 30.0  # the slowest job takes about 5 s
RUN_LIMIT_S = 150.0  # jobs still pending at this point fail, so a run ends within 180 s
SETUP_SAMPLES = 3  # per pass, after one unmeasured warm-up that fills the bytecode cache
SETUP_CODE = "import quandles.cli as c; c.build_parser()"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    stdout: str = ""
    error: str = ""  # empty when the job ran and its result checked out
    spans: list = field(default_factory=list)


def spawn(argv: list[str], cwd: Path, timeout: float, env: dict) -> tuple[float, float, float, int, str, bool]:
    """Run one child to completion; returns wall, cpu, peak RSS (MB),
    exit code, stdout and whether it was killed for the timeout."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    killed.set()
                    proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                reaped = True
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_text(errors="replace"),
        killed.is_set(),
    )


class Runner:
    def __init__(self, workload: str, seed: int, reference: dict):
        self.jobs = make_jobs(workload, seed)
        self.reference = reference["jobs"][workload]
        self.workdir = WORK / workload
        (self.workdir / "specs").mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            (self.workdir / job.spec_path).write_text(json.dumps(job.spec))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def setup_sample(self) -> float:
        wall, _, _, code, _, _ = spawn([sys.executable, "-c", SETUP_CODE], self.workdir, JOB_TIMEOUT_S, self.env)
        if code != 0:
            raise RuntimeError(f"importing quandles.cli failed with exit code {code}")
        return wall

    def run(self, job: Job, traced: bool) -> Outcome:
        self.attempted += 1
        spans_path = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), *job.argv]
        else:
            argv = [sys.executable, "-m", "quandles", *job.argv]
        budget = min(JOB_TIMEOUT_S, self.remaining())
        if budget <= 0:
            outcome = Outcome(0.0, 0.0, 0.0, error="run time limit reached before the job started")
        else:
            wall, cpu, rss, code, stdout, killed = spawn(argv, self.workdir, budget, self.env)
            outcome = Outcome(wall, cpu, rss, stdout)
            if killed:
                outcome.error = f"timed out after {budget:.0f} s"
            elif code != 0:
                outcome.error = f"exit code {code}"
            else:
                outcome.error = self.check(job, stdout)
            if traced and not outcome.error:
                outcome.spans = json.loads(spans_path.read_text())["spans"]
        if outcome.error:
            self.failed += 1
            self.failures.append(f"{job.id}{' (traced)' if traced else ''}: {outcome.error}")
        return outcome

    def check(self, job: Job, stdout: str) -> str:
        try:
            got, seeded = digest(job.kind, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable output: {e!r}"
        want = self.reference.get(job.id)
        if want is None:
            return "no reference result"
        if json.loads(json.dumps(got)) != want:
            return f"result {got} differs from reference {want}"
        if seeded != job.expect:
            return f"fields {seeded} differ from expected {job.expect}"
        return ""


# ---------------------------------------------------------------------------
# metrics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(jobs: list[Job], plain: dict[str, list[Outcome]], setup: list[float], runner: Runner) -> dict:
    def per_job(attr):
        return [median([getattr(o, attr) for o in plain[j.id]]) for j in jobs]

    rss = per_job("rss_mb")
    return {
        "wall_s": sum(per_job("wall")),
        "cpu_s": sum(per_job("cpu")),
        "setup_s": median(setup),
        "peak_rss_mb": max(rss),
        "mean_rss_mb": sum(rss) / len(rss),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


TIMED_SPANS = {
    "cli.parse_generators": "cli.parse_generators_s",
    "families.construct": "families.construct_s",
    "groups.construct": "groups.construct_s",
    "families.window_axioms": "families.window_axioms_s",
    "schreier.ends": "schreier.ends_s",
    "schreier.compare": "schreier.compare_s",
    "schreier.constant": "schreier.constant_s",
    "schreier.serialize": "schreier.serialize_s",
    "perms.closure": "perms.closure_s",
    "perms.orbits": "perms.orbits_s",
    "perms.quotient": "perms.quotient_s",
    "quandle.axioms": "quandle.axioms_s",
    "verify.dis_properties": "verify.dis_properties_s",
    "verify.reconstruction": "verify.reconstruction_s",
    "verify.inner_commutator": "verify.inner_commutator_s",
    "verify.p_equals_dis": "verify.p_equals_dis_s",
    "verify.free_action_isometry": "verify.free_action_isometry_s",
}
BACKENDS = ("finite", "dihedral-inf", "lattice", "free")

PER_LAYER_UNITS = {
    **{metric: "s" for metric in TIMED_SPANS.values()},
    "cli.stdout_bytes": "bytes",
    "families.window_triples": "count",
    "schreier.build_ball_s": "s",
    **{f"schreier.build_ball_s.{b}": "s" for b in BACKENDS},
    "schreier.build_ball_calls": "count",
    "schreier.ball_vertices": "count",
    "schreier.ball_edges": "count",
    "schreier.vertices_per_s": "1/s",
    "schreier.distance_s": "s",
    "schreier.distance_calls": "count",
    "schreier.certified_ratio": "ratio",
    "schreier.pairs_checked": "count",
    "schreier.serialize_bytes": "bytes",
    "perms.closure_calls": "count",
    "perms.group_elements": "count",
    "perms.products": "count",
    "quandle.axiom_triples": "count",
    "trace.overhead_frac": "ratio",
}
EXACT_UNITS = ("count", "bytes")  # these repeat exactly from run to run


def layer_metrics(traced: dict[str, Outcome]) -> dict:
    """Self times and counts of one traced pass.  A span's self time is
    its duration minus its child spans and its summed per-pair calls."""
    m = {name: 0 if unit in EXACT_UNITS else 0.0 for name, unit in PER_LAYER_UNITS.items()}
    hits = 0
    for outcome in traced.values():
        spans = outcome.spans
        m["cli.stdout_bytes"] += len(outcome.stdout.encode())
        covered = [s[4].get("leaf_s", 0.0) for s in spans]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, attrs), cover in zip(spans, covered):
            self_s = end - start - cover
            if name in TIMED_SPANS:
                m[TIMED_SPANS[name]] += self_s
            if name == "schreier.build_ball":
                m["schreier.build_ball_s"] += self_s
                m[f"schreier.build_ball_s.{attrs['backend']}"] += self_s
                m["schreier.build_ball_calls"] += 1
                m["schreier.ball_vertices"] += attrs["vertices"]
                m["schreier.ball_edges"] += attrs["edges"]
            elif name == "schreier.compare":
                m["schreier.pairs_checked"] += attrs["pairs"]
            elif name == "schreier.serialize":
                m["schreier.serialize_bytes"] += attrs["bytes"]
            elif name == "perms.closure":
                m["perms.closure_calls"] += 1
                m["perms.group_elements"] += attrs["elements"]
                m["perms.products"] += attrs["products"]
            elif name == "quandle.axioms":
                m["quandle.axiom_triples"] += attrs["triples"]
            elif name == "families.window_axioms":
                m["families.window_triples"] += attrs["triples"]
            m["schreier.distance_s"] += attrs.get("leaf_s", 0.0)
            m["schreier.distance_calls"] += attrs.get("leaf_calls", 0)
            hits += attrs.get("leaf_hits", 0)
    calls = m["schreier.distance_calls"]
    m["schreier.certified_ratio"] = hits / calls if calls else 0.0
    built = m["schreier.build_ball_s"]
    m["schreier.vertices_per_s"] = m["schreier.ball_vertices"] / built if built > 0 else 0.0
    return m


# ---------------------------------------------------------------------------
# run


def environment(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        commit = ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "quandles").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    reference = json.loads(REFERENCE.read_text())
    runner = Runner(workload, seed, reference)
    jobs = runner.jobs
    deadline = runner.start + seconds
    runner.setup_sample()  # warm-up: compiles the package's bytecode once
    setup: list[float] = []
    plain = {j.id: [] for j in jobs}
    traced = {j.id: [] for j in jobs}

    def fits(job: Job) -> bool:
        """True while the job's last duration still fits before the deadline."""
        last = sum(runs[job.id][-1].wall for runs in (plain, traced) if runs[job.id])
        return time.perf_counter() + last <= deadline and runner.remaining() > 0

    # passes over the job list until the next job would overrun --seconds;
    # the last pass may stop part-way, so jobs have 2 or 3 samples
    passes = 0  # complete passes
    stopped = False
    while not stopped and (passes == 0 or fits(jobs[0])):
        setup.extend(runner.setup_sample() for _ in range(SETUP_SAMPLES))
        for j in jobs:
            if passes and not fits(j):
                stopped = True
                break
            # alternate which side runs first so drift cancels
            order = (False, True) if passes % 2 == 0 else (True, False)
            for with_trace in order if trace else (False,):
                (traced if with_trace else plain)[j.id].append(runner.run(j, with_trace))
        else:
            passes += 1

    metrics = end_to_end(jobs, plain, setup, runner)
    details = {
        "workload": workload,
        "environment": environment(seed),
        "passes": passes,
        "setup_samples_s": setup,
        "jobs": [
            {
                "id": j.id,
                "argv": j.argv,
                "wall_s": [o.wall for o in plain[j.id]],
                "cpu_s": [o.cpu for o in plain[j.id]],
                "peak_rss_mb": [o.rss_mb for o in plain[j.id]],
                "stdout_bytes": len(plain[j.id][0].stdout.encode()),
            }
            for j in jobs
        ],
        "failures": runner.failures,
        "end_to_end": metrics,
    }
    if trace:
        per_pass = [layer_metrics({j.id: traced[j.id][k] for j in jobs}) for k in range(passes)]
        layers = {
            name: (statistics.median_low if unit in EXACT_UNITS else median)([m[name] for m in per_pass])
            for name, unit in PER_LAYER_UNITS.items()
        }
        traced_wall = sum(median([o.wall for o in traced[j.id]]) for j in jobs)
        layers["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        details["per_layer"] = layers
        metrics = layers
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details["failed_frac"] = runner.failed / runner.attempted
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "quandles" / "cli.py").is_file():
        print(f"error: no quandles package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    try:
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(details, indent=1) + "\n")

    print(json.dumps({"environment": details["environment"]}))
    for job in details["jobs"]:
        print(f"  {job['id']:<24} wall {median(job['wall_s']):7.3f} s  cpu {median(job['cpu_s']):7.3f} s"
              f"  rss {median(job['peak_rss_mb']):7.1f} MB  out {job['stdout_bytes']} B")
    for failure in details["failures"]:
        print(f"  FAILED {failure}")
    print(f"  {'failed_frac':<32} {details['failed_frac']:.4f} ratio")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
