"""Golden bytes of the command line.

Each case runs ``quandles.cli.main(argv)`` in-process and compares its
stdout, stderr and exit code with ``tests/golden/<case>.json``.  The
specs are written to a temporary directory and named by relative path,
so the instance strings in the output do not depend on where it is.
Three cases also run through a fresh ``python -m quandles``.

To record the files again after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from support import src_env

from quandles import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = {
    "r4.json": {"family": "dihedral", "n": 4},
    "r5.json": {"family": "dihedral", "n": 5},
    "r21.json": {"family": "dihedral", "n": 21},
    "bad.json": {"family": "finite-table", "table": [[0, 0, 0], [1, 1, 1], [2, 2, 1]]},
    "dinf.json": {"family": "dihedral", "n": "inf"},
    "dinf_disp.json": {"family": "dihedral", "n": "inf", "action": "displacement"},
    "rot90.json": {"family": "galex-lattice", "t": [[0, -1], [1, 0]]},
    "conj_s3.json": {"family": "conjugation", "group": "symmetric:3", "subset": [1, 2, 5]},
    "free_ab.json": {"family": "free", "alphabet": ["a", "b"]},
    "d4_rot.json": {"family": "galex-finite", "group": "dihedral:4", "sigma": {"conjugation-by": 1}},
    "a4.json": {"family": "galex-finite", "group": "alternating:4", "sigma": {"conjugation-by": 3}},
    "moebius.json": {"family": "moebius"},
}

CASES = {
    "axioms-r5": ["axioms", "r5.json"],
    "axioms-bad-table": ["axioms", "bad.json"],
    "axioms-dinf-window": ["axioms", "dinf.json", "--window", "3"],
    "ball-r5-json": ["ball", "r5.json", "--radius", "2"],
    "ball-rot90-dot": ["ball", "rot90.json", "--radius", "2", "--dot"],
    "ball-free-custom-generators": ["ball", "free_ab.json", "--radius", "2", "--generators", "s:a^1 s:b^1^-1", "s:b^1"],
    "dist-dinf-disp": ["dist", "dinf_disp.json", "--from", "0", "--to", "-6", "--radius", "10"],
    "ends-dinf-disp": ["ends", "dinf_disp.json", "--inner-radius", "3", "--outer-radius", "12"],
    "components-conj-s3": ["components", "conj_s3.json"],
    "components-rot90-window": ["components", "rot90.json", "--window", "2"],
    "dis-lattice-rot90": ["dis-lattice", "rot90.json"],
    "compare-gensets-pass": ["compare-gensets", "dinf.json", "--genset-a", "s:0,s:1", "--genset-b", "s:0,s:1,s:2", "--radius", "6"],
    "compare-gensets-fail": ["compare-gensets", "rot90.json", "--genset-a", "s:(0,0),s:(1,0),s:(0,1)",
                             "--genset-b", "s:(0,0),s:(1,0),s:(0,1),s:(1,1)", "--radius", "3", "--constant", "1"],
    "growth-free": ["growth", "free_ab.json", "--radius", "3"],
    "verify-dis-properties-conj-s3": ["verify", "conj_s3.json", "--suite", "dis-properties"],
    "verify-p-equals-dis-d4": ["verify", "d4_rot.json", "--suite", "p-equals-dis"],
    "verify-inner-commutator-d4": ["verify", "d4_rot.json", "--suite", "inner-commutator"],
    "verify-inner-identity-component-d4": ["verify", "d4_rot.json", "--suite", "inner-identity-component"],
    "verify-inner-identity-component-a4": ["verify", "a4.json", "--suite", "inner-identity-component"],
    "verify-reconstruction-r5": ["verify", "r5.json", "--suite", "reconstruction"],
    "verify-reconstruction-r4-fails": ["verify", "r4.json", "--suite", "reconstruction"],
    "verify-reconstruction-r21": ["verify", "r21.json", "--suite", "reconstruction"],
    "verify-dis-properties-r21": ["verify", "r21.json", "--suite", "dis-properties"],
    "verify-isometry-rot90": ["verify", "rot90.json", "--suite", "free-action-isometry", "--radius", "3"],
    "verify-isometry-r5": ["verify", "r5.json", "--suite", "free-action-isometry", "--radius", "3"],
    "exit2-unknown-family": ["axioms", "moebius.json"],
    "exit3-ball-cap": ["ball", "dinf.json", "--radius", "50", "--max-vertices", "10"],
}


def run_case(argv: list[str], directory: Path) -> dict:
    """Run ``main(argv)`` in ``directory``; the record a golden file holds.
    The test itself captures with ``capsys`` instead."""
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_specs(directory: Path) -> None:
    for name, spec in SPECS.items():
        (directory / name).write_text(json.dumps(spec))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, tmp_path, monkeypatch, capsys):
    write_specs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = cli.main(CASES[case])
    out, err = capsys.readouterr()
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert {"argv": CASES[case], "exit": code, "stdout": out, "stderr": err} == expected


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("case", ["axioms-r5", "ball-rot90-dot", "verify-isometry-rot90"])
def test_cli_golden_through_python_m(case, threads, tmp_path):
    """The same bytes from a fresh ``python -m quandles``, whose entry point
    caps OpenBLAS at one thread unless the caller chose a count."""
    write_specs(tmp_path)
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-m", "quandles", *CASES[case]], cwd=tmp_path, env=env, capture_output=True)
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert (out.returncode, out.stdout, out.stderr) == (
        expected["exit"],
        expected["stdout"].encode(),
        expected["stderr"].encode(),
    )


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def test_every_exit_code_and_suite_is_covered():
    codes = {json.loads((GOLDEN / f"{case}.json").read_text())["exit"] for case in CASES}
    assert codes == {0, 1, 2, 3}
    commands = {argv[0] for argv in CASES.values()}
    assert commands == set(cli.build_parser()._subparsers._group_actions[0].choices)
    suites = {argv[argv.index("--suite") + 1] for argv in CASES.values() if "--suite" in argv}
    assert suites == set(cli.SUITES)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_specs(Path(tmp))
        for case, argv in sorted(CASES.items()):
            rec = run_case(argv, Path(tmp))
            (GOLDEN / f"{case}.json").write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
