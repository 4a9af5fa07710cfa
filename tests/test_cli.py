import importlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import key_counting, src_env

from quandles import cli, schreier

CLI = [sys.executable, "-m", "quandles"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), env=src_env(), capture_output=True, text=True)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def dih5(tmp_path):
    return write_spec(tmp_path, "dih5.json", {"family": "dihedral", "n": 5})


@pytest.fixture
def dihinf(tmp_path):
    return write_spec(tmp_path, "dihinf.json", {"family": "dihedral", "n": "inf"})


@pytest.fixture
def dihinf_disp(tmp_path):
    return write_spec(
        tmp_path, "dihinf_disp.json",
        {"family": "dihedral", "n": "inf", "action": "displacement"},
    )


@pytest.fixture
def rot90(tmp_path):
    return write_spec(tmp_path, "rot90.json", {"family": "galex-lattice", "t": [[0, -1], [1, 0]]})


def test_axioms_pass(dih5):
    out = run_cli("axioms", dih5)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"ok": True, "axiom": None, "witness": None}


def test_axioms_fail_witness(tmp_path):
    spec = write_spec(
        tmp_path, "bad.json",
        {"family": "finite-table", "table": [[0, 0, 0], [1, 1, 1], [2, 2, 1]]},
    )
    out = run_cli("axioms", spec)
    assert out.returncode == 1
    record = json.loads(out.stdout)
    assert record["ok"] is False
    assert record["axiom"] == 1
    assert record["witness"] == [2]


def test_axioms_window(dihinf):
    out = run_cli("axioms", dihinf, "--window", "5")
    assert out.returncode == 0
    assert json.loads(out.stdout)["window"] == 5


def test_unknown_family(tmp_path):
    spec = write_spec(tmp_path, "odd.json", {"family": "moebius"})
    out = run_cli("axioms", spec)
    assert out.returncode == 2
    assert json.loads(out.stderr)["error"] == "unknown-family"


def test_non_unimodular(tmp_path):
    spec = write_spec(tmp_path, "sing.json", {"family": "galex-lattice", "t": [[2, 0], [0, 1]]})
    out = run_cli("dis-lattice", spec)
    assert out.returncode == 2
    assert json.loads(out.stderr)["error"] == "non-unimodular"


def test_malformed_table(tmp_path):
    spec = write_spec(tmp_path, "rag.json", {"family": "finite-table", "table": [[0, 1], [0]]})
    out = run_cli("axioms", spec)
    assert out.returncode == 2
    assert json.loads(out.stderr)["error"] == "malformed-table"


def test_ball_json_deterministic(rot90):
    a = run_cli("ball", rot90, "--radius", "3")
    b = run_cli("ball", rot90, "--radius", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = [json.loads(line) for line in a.stdout.splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["basepoint"] == "(0,0)"
    kinds = {line["type"] for line in lines}
    assert kinds == {"header", "vertex", "edge"}


def test_ball_dot(dihinf):
    out = run_cli("ball", dihinf, "--radius", "2", "--dot")
    assert out.returncode == 0
    assert out.stdout.startswith("graph schreier_ball {")
    assert '"0" -- "2" [label="s1"];' in out.stdout


def test_ball_output_file(dihinf, tmp_path):
    target = tmp_path / "ball.jsonl"
    out = run_cli("ball", dihinf, "--radius", "2", "-o", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    assert target.read_text().count("\n") >= 4


def test_ball_custom_base_and_generators(dihinf):
    out = run_cli("ball", dihinf, "--radius", "2", "--base", "4",
                  "--generators", "s:4", "s:5")
    assert out.returncode == 0
    header = json.loads(out.stdout.splitlines()[0])
    assert header["basepoint"] == "4"
    assert header["generators"] == ["s4", "s5"]


def test_dist(dihinf_disp):
    out = run_cli("dist", dihinf_disp, "--from", "0", "--to", "-6", "--radius", "10")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["distance"] == 3
    assert rec["status"] == "certified"


def test_dist_out_of_ball(dihinf_disp):
    out = run_cli("dist", dihinf_disp, "--from", "0", "--to", "99", "--radius", "4")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["distance"] is None
    assert rec["status"] == "out-of-ball"


def test_ends(dihinf, dihinf_disp):
    one = run_cli("ends", dihinf, "--inner-radius", "5", "--outer-radius", "20")
    assert json.loads(one.stdout)["ends_estimate"] == 1
    two = run_cli("ends", dihinf_disp, "--inner-radius", "5", "--outer-radius", "20")
    assert json.loads(two.stdout)["ends_estimate"] == 2


def test_components_finite(tmp_path):
    spec = write_spec(tmp_path, "dih4.json", {"family": "dihedral", "n": 4})
    out = run_cli("components", spec)
    assert out.returncode == 0
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    assert rows == [{"component": "0", "size": 2}, {"component": "1", "size": 2}]


def test_components_window(rot90):
    out = run_cli("components", rot90, "--window", "3")
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(rows) == 2
    assert sum(r["count_in_window"] for r in rows) == 49
    missing = run_cli("components", rot90)
    assert missing.returncode == 2


def test_dis_lattice(rot90):
    out = run_cli("dis-lattice", rot90)
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec == {
        "ambient_dim": 2,
        "rank": 2,
        "basis_columns": [[1, 1], [0, 2]],
        "index_in_ambient": 2,
    }


def test_growth(tmp_path):
    spec = write_spec(tmp_path, "free.json", {"family": "free", "alphabet": ["a", "b"]})
    out = run_cli("growth", spec, "--radius", "4")
    rec = json.loads(out.stdout)
    assert rec["sphere_sizes"] == [1, 2, 6, 18, 54]


def test_free_displacement_rejected(tmp_path):
    spec = write_spec(
        tmp_path, "freedisp.json",
        {"family": "free", "alphabet": ["a", "b"], "action": "displacement"},
    )
    out = run_cli("ball", spec, "--radius", "2")
    assert out.returncode == 2
    assert json.loads(out.stderr)["field"] == "action"


def test_compare_gensets(dihinf):
    out = run_cli(
        "compare-gensets", dihinf,
        "--genset-a", "s:0,s:1", "--genset-b", "s:0,s:1,s:2", "--radius", "8",
    )
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["status"] == "pass"
    assert rec["constant"] == 3
    forced = run_cli(
        "compare-gensets", dihinf,
        "--genset-a", "s:0,s:1", "--genset-b", "s:0,s:1,s:2",
        "--radius", "8", "--constant", "1",
    )
    assert forced.returncode == 1
    assert json.loads(forced.stdout)["status"] == "fail"


def test_compare_gensets_lattice_keys(rot90):
    """Vector keys carry commas; only commas between expressions split."""
    gens = ["--genset-a", "s:(0,0),s:(1,0),s:(0,1)", "--genset-b", "s:(0,0),s:(1,0),s:(0,1),s:(1,1)"]
    out = run_cli("compare-gensets", rot90, *gens, "--radius", "4")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"constant": 3, "pairs_checked": 163, "status": "pass", "witness": None}
    forced = run_cli("compare-gensets", rot90, *gens, "--radius", "4", "--constant", "1")
    assert forced.returncode == 1
    assert json.loads(forced.stdout)["witness"] == {"x": "(0,0)", "y": "(0,2)", "d_a": 2, "d_b": 1}


def test_cap_exit_code(dihinf):
    out = run_cli("ball", dihinf, "--radius", "50", "--max-vertices", "10")
    assert out.returncode == 3
    assert json.loads(out.stderr)["error"] == "bound-exceeded"


def test_cap_reports_progress(dihinf, tmp_path):
    # the inner ball of the dihedral quandle on Z is a path, one vertex a sphere
    out = run_cli("ball", dihinf, "--radius", "50", "--max-vertices", "10")
    err = json.loads(out.stderr)
    assert out.returncode == 3
    assert (err["radius"], err["vertices"]) == (9, 10)
    # translation by 2 on R_12: a 6-cycle, spheres of sizes 1, 2, 2, 1
    r12 = write_spec(tmp_path, "r12.json", {"family": "dihedral", "n": 12, "generators": ["s:1 s:0^-1"]})
    assert json.loads(run_cli("growth", r12, "--radius", "4").stdout)["sphere_sizes"] == [1, 2, 2, 1, 0]
    out = run_cli("growth", r12, "--radius", "4", "--max-vertices", "4")
    err = json.loads(out.stderr)
    assert out.returncode == 3
    assert (err["radius"], err["vertices"]) == (1, 3)
    assert run_cli("growth", r12, "--radius", "4", "--max-vertices", "6").returncode == 0


def test_constant_search_honors_the_vertex_cap(tmp_path):
    """s_c is no word in s_a and s_b, so the Cayley balls of {s_a, s_b}
    grow as 2 * 3^r - 1 until the cap stops them."""
    free3 = write_spec(tmp_path, "free3.json", {"family": "free", "alphabet": ["a", "b", "c"]})
    args = ("compare-gensets", free3, "--genset-a", "s:a^1,s:b^1,s:c^1", "--genset-b", "s:a^1,s:b^1")
    out = run_cli(*args, "--radius", "2", "--max-vertices", "1000")
    err = json.loads(out.stderr)
    assert out.returncode == 3 and out.stdout == ""
    assert (err["error"], err["radius"], err["vertices"]) == ("bound-exceeded", 5, 485)


def test_vertex_cap_below_one_is_bad_input(dihinf, capsys):
    args = ["ball", dihinf, "--radius", "0"]
    for cap in ("-5", "0"):
        assert cli.main([*args, "--max-vertices", cap]) == 2
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "bad-input"
        assert "--max-vertices" in err["message"] and cap in err["message"]
    assert cli.main([*args, "--max-vertices", "1"]) == 0


def test_negative_word_length_is_bad_input(dihinf, capsys):
    args = ["compare-gensets", dihinf, "--genset-a", "s:0,s:1", "--genset-b", "s:0,s:1,s:2", "--radius", "4"]
    assert cli.main([*args, "--max-word-length", "-1"]) == 2
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == "bad-input"
    assert "--max-word-length" in err["message"] and "-1" in err["message"]
    # zero is a limit: words of length 0 express no generator
    assert cli.main([*args, "--max-word-length", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "bad-spec"
    assert cli.main([*args, "--max-word-length", "3"]) == 0


def test_verify_honors_the_vertex_cap(rot90):
    args = ("verify", rot90, "--suite", "free-action-isometry", "--radius", "20")
    assert run_cli(*args).returncode == 0  # an 841-vertex orbit ball
    out = run_cli(*args, "--max-vertices", "10")
    err = json.loads(out.stderr)
    assert out.returncode == 3
    # the displacement orbit of (0,0) grows as 1, 4, 8, ...
    assert (err["error"], err["radius"], err["vertices"]) == ("bound-exceeded", 1, 5)


@pytest.mark.parametrize(
    "command,capped",
    [("axioms", False), ("components", False), ("dis-lattice", False), ("ball", True), ("verify", True)],
)
def test_max_vertices_only_where_a_ball_is_built(capsys, command, capped):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert ("--max-vertices" in capsys.readouterr().out) == capped


def test_finite_axioms_leave_numpy_ma_unimported(tmp_path):
    """numpy.ma costs about 16 ms of import; a bare np.unique pulls it in.
    Neither the finite axiom check, nor ``components`` and ``growth``
    (both on ``perms.walk``), nor any of the four finite verify suites
    may import it."""
    r9 = write_spec(tmp_path, "r9.json", {"family": "dihedral", "n": 9})
    d4 = write_spec(tmp_path, "d4.json", {"family": "galex-finite", "group": "dihedral:4", "sigma": {"conjugation-by": 1}})
    runs = [["axioms", r9], ["components", r9], ["growth", r9, "--radius", "3"]] + [
        ["verify", spec, "--suite", suite]
        for spec, suite in ((r9, "dis-properties"), (d4, "p-equals-dis"), (d4, "inner-commutator"), (r9, "reconstruction"))
    ]
    code = "\n".join(
        [
            "import io, json, sys",
            "from contextlib import redirect_stdout",
            "from quandles import cli",
            "first, flags = io.StringIO(), []",
            "for argv in json.loads(sys.argv[1]):",
            "    with redirect_stdout(first if not flags else io.StringIO()):",
            "        cli.main(argv)",
            "    flags.append('numpy.ma' in sys.modules)",
            "print(first.getvalue().strip())",
            "print(json.dumps(flags))",
        ]
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=src_env(), capture_output=True, text=True)
    assert out.stdout.splitlines() == ['{"axiom":null,"ok":true,"witness":null}', json.dumps([False] * len(runs))]


def test_import_quandles_leaves_numpy_unimported():
    """numpy loads OpenBLAS, and so its thread pool; neither the package
    nor its entry point may load it before ``main`` has run."""
    code = "\n".join(
        [
            "import sys",
            "import quandles",
            "print('numpy' in sys.modules)",
            "from quandles.__main__ import main",
            "print('numpy' in sys.modules)",
        ]
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert out.stdout.splitlines() == ["False", "False"], out.stderr


def test_cli_start_leaves_fractions_and_decimal_unimported(tmp_path):
    """Exact arithmetic is done in Python ints: neither the CLI's start nor
    a lattice ``growth`` run, which inverts t, loads ``fractions`` or
    ``decimal``."""
    rot90 = write_spec(tmp_path, "rot90.json", {"family": "galex-lattice", "t": [[0, -1], [1, 0]]})
    code = "\n".join(
        [
            "import sys",
            "import quandles.cli",
            "quandles.cli.build_parser()",
            "loaded = lambda: sorted({'fractions', 'decimal'} & set(sys.modules))",
            "print(loaded())",
            "sys.argv[1:] = ['growth', sys.argv[1], '--radius', '3']",
            "code = quandles.cli.main()",
            "print(code, loaded())",
        ]
    )
    out = subprocess.run([sys.executable, "-c", code, rot90], env=src_env(), capture_output=True, text=True)
    assert out.stdout.splitlines() == [
        "[]",
        '{"basepoint":"(0,0)","radius":3,"sphere_sizes":[1,3,6,8]}',
        "0 []",
    ], out.stderr


@pytest.mark.parametrize("preset,seen", [(None, "1"), ("2", "2")])
def test_main_defaults_openblas_threads_to_one_and_skips_verify(tmp_path, preset, seen):
    """``main`` sets OPENBLAS_NUM_THREADS only where the caller has not,
    and a subcommand other than ``verify`` never imports verify.py."""
    r9 = write_spec(tmp_path, "r9.json", {"family": "dihedral", "n": 9})
    code = "\n".join(
        [
            "import json, os, sys",
            "from quandles.__main__ import main",
            "sys.argv[1:] = ['axioms', sys.argv[1]]",
            "code = main()",
            "print(json.dumps([code, os.environ.get('OPENBLAS_NUM_THREADS'), 'quandles.verify' in sys.modules]))",
        ]
    )
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", code, r9], env=env, capture_output=True, text=True)
    assert out.stdout.splitlines() == ['{"axiom":null,"ok":true,"witness":null}', json.dumps([0, seen, False])]


def test_installed_command_is_the_python_m_entry_point():
    """``[project.scripts]`` and ``python -m quandles`` start the same way."""
    tomllib = pytest.importorskip("tomllib")
    import quandles.__main__

    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, attr = pyproject["project"]["scripts"]["quandles"].partition(":")
    assert getattr(importlib.import_module(module), attr) is quandles.__main__.main


@pytest.mark.parametrize(
    "spec,options,error",
    [
        ({"family": "conjugation", "group": [[0, 1.7], [1, 0]]}, [], "malformed-table"),
        ({"family": "conjugation", "group": [[True, False], [False, True]]}, [], "malformed-table"),
        ({"family": "conjugation", "group": "cyclic:3", "subset": [1.9]}, [], "bad-construction"),
        ({"family": "galex-finite", "group": "cyclic:2", "sigma": [0, 1.2]}, [], "bad-construction"),
        ({"family": "galex-finite", "group": "cyclic:4", "sigma": {"conjugation-by": 9}}, [], "bad-construction"),
        (
            {"family": "galex-finite", "group": "dihedral:3", "sigma": {"conjugation-by": -1}},
            ["--suite", "inner-commutator"],
            "bad-construction",
        ),
        ({"family": "conjugation", "group": "cyclic:3", "subset": []}, [], "bad-construction"),
        ({"family": "finite-table", "table": [[0, 0.5], [1, 1]]}, [], "malformed-table"),
        ({"family": "finite-table", "table": [[0, 0], [True, 1]]}, [], "malformed-table"),
        ({"family": "conjugation", "group": "cyclic:3", "subset": [1, True]}, [], "bad-construction"),
        ({"family": "galex-finite", "group": "cyclic:2", "sigma": [0, True]}, [], "bad-construction"),
        ({"family": "conjugation", "group": "cyclic:0"}, [], "bad-spec"),
        ({"family": "conjugation", "group": "dihedral:0"}, [], "bad-spec"),
        ({"family": "conjugation", "group": "symmetric:0"}, [], "bad-spec"),
        ({"family": "conjugation", "group": "symmetric:-1"}, [], "bad-spec"),
        ({"family": "conjugation", "group": "alternating:0"}, [], "bad-spec"),
        ({"family": "conjugation", "group": "quaternion:5"}, [], "bad-spec"),
    ],
    ids=[
        "float-table", "bool-table", "float-subset", "float-sigma", "conjugator-9", "conjugator-minus-1", "empty-subset",
        "float-quandle-table", "bool-in-quandle-table", "bool-in-subset", "bool-in-sigma",
        "cyclic-0", "dihedral-0", "symmetric-0", "symmetric-minus-1", "alternating-0", "quaternion-5",
    ],
)
def test_group_input_takes_integers_in_range_only(tmp_path, capsys, spec, options, error):
    path = write_spec(tmp_path, "spec.json", spec)
    assert cli.main(["verify" if options else "components", path, *options]) == 2
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == error
    if error == "bad-spec":  # a named group: the message names the value
        assert err["field"] == "group" and repr(spec["group"]) in err["message"]


@pytest.mark.parametrize("command", [["axioms"], ["growth", "--radius", "2"]], ids=["axioms", "growth"])
@pytest.mark.parametrize(
    "spec,error",
    [
        ({"family": "dihedral", "n": [5]}, "bad-construction"),
        ({"family": "dihedral", "n": 2.5}, "bad-construction"),
        ({"family": "dihedral", "n": "5"}, "bad-construction"),
        ({"family": "galex-lattice", "t": 5}, "non-unimodular"),
        ({"family": "galex-lattice", "t": []}, "non-unimodular"),
        ({"family": "galex-lattice", "t": [[1.5]]}, "non-unimodular"),
        ({"family": "galex-lattice", "t": [[True]]}, "non-unimodular"),
        ({"family": "free", "alphabet": [1, 2]}, "bad-construction"),
        ({"family": "free", "alphabet": ["a", ["b"]]}, "bad-construction"),
        ({"family": "free", "alphabet": 5}, "bad-construction"),
        ({"family": "free", "alphabet": "ab"}, "bad-construction"),
    ],
    ids=[
        "n-list", "n-float", "n-string", "t-int", "t-empty", "t-float", "t-bool",
        "alphabet-ints", "alphabet-nested", "alphabet-int", "alphabet-string",
    ],
)
def test_infinite_family_input_is_checked(tmp_path, capsys, command, spec, error):
    """Malformed parameters of the infinite families exit 2 with one
    JSON error record, never a traceback or a silently truncated value."""
    path = write_spec(tmp_path, "spec.json", spec)
    assert cli.main([command[0], path, *command[1:]]) == 2
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == error


@pytest.mark.parametrize("command", ["axioms", "components"])
@pytest.mark.parametrize(
    "spec",
    [
        {"family": "galex-lattice", "t": [[0, -1], [1, 0]]},
        {"family": "dihedral", "n": "inf"},
        {"family": "free", "alphabet": ["a", "b"]},
    ],
    ids=["rot90", "dihedral-inf", "free"],
)
def test_negative_window_is_a_bad_spec(tmp_path, capsys, command, spec):
    """An empty window proves nothing: exit 2 with a bad-spec error on
    field window, and nothing on stdout."""
    path = write_spec(tmp_path, "spec.json", spec)
    for window in ("-1", "-3"):
        assert cli.main([command, path, "--window", window]) == 2
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "bad-spec" and err["field"] == "window"
        assert window in err["message"]
    assert cli.main([command, path, "--window", "0"]) == 0


@pytest.mark.parametrize("command", ["axioms", "components"])
def test_free_window_past_the_vertex_cap_exits_3(tmp_path, capsys, monkeypatch, command):
    """A free window is a ball per letter, so the ball's vertex cap bounds
    it: 3^W elements per letter on two letters."""
    monkeypatch.setattr(schreier.build_ball, "__defaults__", (27,))
    path = write_spec(tmp_path, "spec.json", {"family": "free", "alphabet": ["a", "b"]})
    assert cli.main(["components", path, "--window", "3"]) == 0
    capsys.readouterr()
    assert cli.main([command, path, "--window", "4"]) == 3
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == "bound-exceeded" and err["radius"] == 3 and err["vertices"] == 27


STOCK_SIZES = {"cyclic:3": 3, "cyclic:4": 4, "dihedral:3": 6, "symmetric:3": 6, "quaternion": 8}


def _not_an_index(n):
    """A JSON value that is no element index of a group of order n."""
    return st.one_of(
        st.integers(n, n + 10**6), st.integers(-(10**6), -1), st.floats(), st.booleans(), st.text(max_size=3)
    )


@st.composite
def _malformed_specs(draw):
    name = draw(st.sampled_from(sorted(STOCK_SIZES)))
    n = STOCK_SIZES[name]
    good = st.integers(0, n - 1)
    bad = _not_an_index(n)

    def spoiled(length):  # a list of indices with at least one bad entry
        entries = draw(st.lists(good, min_size=length - 1, max_size=length - 1))
        entries.insert(draw(st.integers(0, len(entries))), draw(bad))
        return entries

    kind = draw(st.sampled_from(["subset", "subset-empty", "subset-scalar", "sigma", "sigma-empty", "conjugator", "table"]))
    if kind.startswith("subset"):
        subset = {"subset": spoiled(draw(st.integers(1, 6))), "subset-empty": [], "subset-scalar": draw(bad)}[kind]
        return {"family": "conjugation", "group": name, "subset": subset}
    if kind == "table":
        table = [spoiled(n) if draw(st.booleans()) else draw(st.lists(good, min_size=n, max_size=n)) for _ in range(n)]
        table[draw(st.integers(0, n - 1))] = spoiled(n)
        return {"family": draw(st.sampled_from(["conjugation", "galex-finite"])), "group": table, "sigma": list(range(n))}
    sigma = {
        "sigma": spoiled(n),
        "sigma-empty": [],
        "conjugator": {"conjugation-by": draw(st.one_of(bad, st.none(), st.lists(good, min_size=1, max_size=2)))},
    }[kind]
    return {"family": "galex-finite", "group": name, "sigma": sigma}


@settings(max_examples=150, deadline=None)
@given(_malformed_specs())
def test_malformed_finite_specs_exit_2_with_a_json_error(spec):
    """Out-of-range, negative, float, bool, text and empty values where a
    group table, a subset or sigma wants element indices: exit 2 with one
    JSON error record on stderr, never an uncaught exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["components", path])
    assert code == 2, spec
    assert out.getvalue() == ""
    assert "error" in json.loads(err.getvalue())


def test_verify_suites(tmp_path, dih5):
    ok = run_cli("verify", dih5, "--suite", "dis-properties")
    assert ok.returncode == 0
    assert len(ok.stdout.splitlines()) == 4
    d4 = write_spec(
        tmp_path, "d4.json",
        {"family": "galex-finite", "group": "dihedral:4", "sigma": {"conjugation-by": 1}},
    )
    assert run_cli("verify", d4, "--suite", "p-equals-dis").returncode == 0
    gap = run_cli("verify", d4, "--suite", "inner-commutator")
    assert gap.returncode == 1
    rec = json.loads(gap.stdout)
    assert rec["pass"] is False
    assert rec["witness"]["component_not_in_commutator"] == [2]


def test_verify_reconstruction_cli(tmp_path):
    spec = write_spec(tmp_path, "dih3.json", {"family": "dihedral", "n": 3})
    out = run_cli("verify", spec, "--suite", "reconstruction")
    assert out.returncode == 0
    assert json.loads(out.stdout)["details"]["sigma"] == [0, 2, 1]


def test_verify_unknown_suite(dih5):
    out = run_cli("verify", dih5, "--suite", "sandwich")
    assert out.returncode == 2


@pytest.mark.parametrize("suite", ["inner-commutator", "inner-identity-component"])
def test_inner_suites_need_sigma_to_be_conjugation(tmp_path, capsys, suite):
    """Inversion on the abelian C3 is no conjugation: exit 2 on field sigma."""
    spec = write_spec(tmp_path, "c3.json", {"family": "galex-finite", "group": "cyclic:3", "sigma": [0, 2, 1]})
    assert cli.main(["verify", spec, "--suite", suite]) == 2
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and (err["error"], err["field"]) == ("bad-spec", "sigma")


@pytest.mark.parametrize("generators", [[1], "s:1"], ids=["list-of-ints", "string"])
def test_spec_generators_must_be_a_list_of_strings(tmp_path, capsys, generators):
    spec = write_spec(tmp_path, "r5.json", {"family": "dihedral", "n": 5, "generators": generators})
    assert cli.main(["growth", spec, "--radius", "2"]) == 2
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and (err["error"], err["field"]) == ("bad-generator", "generators")
    assert repr(generators) in err["message"]


def test_named_group_specs(tmp_path):
    spec = write_spec(
        tmp_path, "conj.json",
        {"family": "conjugation", "group": "symmetric:3", "subset": [1, 2, 5]},
    )
    out = run_cli("components", spec)
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 1
    bad = write_spec(tmp_path, "badgroup.json", {"family": "conjugation", "group": "borel:7"})
    assert run_cli("components", bad).returncode == 2
    for name in ("alternating:1", "dihedral:1", "symmetric:1"):
        assert cli.main(["components", write_spec(tmp_path, "small.json", {"family": "conjugation", "group": name})]) == 0


def test_usage_error():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def _key_cases(tmp_path):
    """Specs on every walk: a finite table read in place, finite moves
    stacked, a lattice, the dihedral quandle on Z and free words."""
    specs = {
        "r9": {"family": "dihedral", "n": 9},
        "r9-displacement": {"family": "dihedral", "n": 9, "action": "displacement"},
        "cat": {"family": "galex-lattice", "t": [[2, 1], [1, 1]]},
        "dinf-displacement": {"family": "dihedral", "n": "inf", "action": "displacement"},
        "free": {"family": "free", "alphabet": ["a", "b"]},
    }
    return [write_spec(tmp_path, f"{name}.json", spec) for name, spec in specs.items()]


def _main(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_growth_and_ends_key_the_basepoint_and_dist_its_two_endpoints(tmp_path, monkeypatch, capsys):
    """Through a key-counting action: ``growth`` and ``ends`` key the
    basepoint alone and ``dist`` its two endpoints, with the output they
    give uncounted; ``dist`` answers as ``LabeledBall.distance`` between
    the two keys does, in the ball and out of it."""
    keyed = []
    resolve = cli.resolve_action

    def counted(backend, data, args):
        action, seen = key_counting(resolve(backend, data, args))
        keyed.append(seen)
        return action

    for spec in _key_cases(tmp_path):
        backend, data = cli.load_spec(spec)
        base = cli.default_basepoint(backend)
        action = resolve(backend, data, cli.build_parser().parse_args(["growth", spec, "--radius", "1"]))
        near, far = schreier.build_ball(action, base, 2), schreier.build_ball(action, base, 5)
        runs = [
            (["growth", spec, "--radius", "4"], 1),
            (["ends", spec, "--inner-radius", "1", "--outer-radius", "4"], 1),
        ]
        for dst in (near.basepoint, near.keys[-1], far.keys[-1]):
            argv = ["dist", spec, "--from", near.basepoint, "--to", dst, "--radius", "2"]
            runs.append((argv, 2))
            d = near.distance(near.basepoint, dst)
            expected = {"distance": d, "from": near.basepoint, "radius": 2, "to": dst}
            expected["status"] = "certified" if d is not None else "out-of-ball"
            assert json.loads(_main(argv, capsys)) == expected
        for argv, keys in runs:
            plain = _main(argv, capsys)
            with monkeypatch.context() as mp:
                mp.setattr(cli, "resolve_action", counted)
                assert _main(argv, capsys) == plain
            assert len(keyed.pop()) == keys, argv
