"""The benchmark's harness leans on the package: the traced run
(`bench/trace_child.py`) wraps package functions by name, so renaming or
deleting one of them breaks it, and `bench/jobs.py` copies the element
order of the named groups."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quandles.cli import load_group

ROOT = Path(__file__).resolve().parent.parent


def test_trace_child_install_finds_every_wrapped_function():
    # a fresh interpreter keeps the patched modules out of this session
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "from trace_child import Tracer, install\n"
        "install(Tracer())\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_traced_finite_components_record_an_orbits_span():
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "from trace_child import Tracer, install\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "from quandles.families import dihedral_quandle\n"
        "print(json.dumps([dihedral_quandle(5).components(), [s[0] for s in tracer.spans]]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    components, spans = json.loads(result.stdout)
    assert components == [[0, 1, 2, 3, 4]]
    assert "perms.orbits" in spans


def _bench_jobs(monkeypatch):
    """``bench/jobs.py`` as a module, read from its file."""
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [f"dihedral:{n}" for n in range(1, 9)]
    + [f"symmetric:{n}" for n in range(1, 5)]
    + [f"alternating:{n}" for n in range(1, 6)],
)
def test_bench_group_orders_are_the_cli_orders(monkeypatch, name):
    """The benchmark re-derives the CLI's element order to pick conjugacy
    classes; its products must index the CLI's table, and its classes
    must be the table's."""
    jobs = _bench_jobs(monkeypatch)
    group = load_group(name)
    els, mult = jobs._named_group(name)
    pos = {e: i for i, e in enumerate(els)}
    assert [[pos[mult(a, b)] for b in els] for a in els] == group.mul.tolist()
    if group.size > 1:
        expected = np.unique(group.conj(1, np.arange(group.size))).tolist()
        assert jobs.conjugacy_class(name, 1) == expected
