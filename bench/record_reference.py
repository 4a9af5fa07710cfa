#!/usr/bin/env python3
"""Write reference.json: the result digest of every job of every workload.

Usage: python3 bench/record_reference.py [SEED ...]   (default seeds 0 and 1)

Runs each job once per seed and refuses to write unless the digests agree
across all seeds, since jobs.py only changes inputs by isomorphisms.  Run
it only at a commit whose results have been checked by other means (the
test suite); the stored digests are what every benchmark run is held to.
"""

from __future__ import annotations

import json
import os
import sys

from jobs import WORKLOADS, digest, make_jobs
from run import JOB_TIMEOUT_S, REFERENCE, SRC, WORK, spawn


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0, 1]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference: dict = {"seeds": seeds, "jobs": {}}
    for workload in WORKLOADS:
        workdir = WORK / "record" / workload
        (workdir / "specs").mkdir(parents=True, exist_ok=True)
        digests: dict = {}
        for seed in seeds:
            for job in make_jobs(workload, seed):
                (workdir / job.spec_path).write_text(json.dumps(job.spec))
                argv = [sys.executable, "-m", "quandles", *job.argv]
                _, _, _, code, stdout, killed = spawn(argv, workdir, JOB_TIMEOUT_S, env)
                if code != 0 or killed:
                    print(f"{workload}/{job.id} seed {seed}: exit code {code}", file=sys.stderr)
                    return 1
                got, seeded = digest(job.kind, stdout)
                if seeded != job.expect:
                    print(f"{workload}/{job.id} seed {seed}: {seeded} != {job.expect}", file=sys.stderr)
                    return 1
                if digests.setdefault(job.id, got) != got:
                    print(f"{workload}/{job.id}: seed {seed} gives {got}, not {digests[job.id]}", file=sys.stderr)
                    return 1
                print(f"{workload}/{job.id} seed {seed}: ok")
        reference["jobs"][workload] = digests
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
