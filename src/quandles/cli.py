"""Command-line interface.

Usage: quandles <subcommand> <specfile> [options]

The spec file is JSON describing a quandle:

    {"family": "dihedral", "n": 5}
    {"family": "dihedral", "n": "inf", "action": "displacement"}
    {"family": "finite-table", "table": [[0,0],[1,1]]}
    {"family": "conjugation", "group": "symmetric:3", "subset": [1,2,4]}
    {"family": "galex-finite", "group": "cyclic:3", "sigma": [0,2,1]}
    {"family": "galex-lattice", "t": [[0,-1],[1,0]]}
    {"family": "free", "alphabet": ["a", "b"]}

Optional keys: "action" ("inner", the default, or "displacement") and
"generators", a list of generator expressions like "s:1 s:0^-1" (factors
separated by spaces, each "s:<element key>" with an optional "^-1").
Group tables may be inlined as row-major lists or named: "cyclic:n",
"dihedral:n", "symmetric:n", "alternating:n", "quaternion".

Exit codes: 0 success, 1 a checked property failed (witness printed),
2 bad usage or bad spec, 3 an enumeration cap was exceeded.

All output is line-oriented JSON (or DOT with --dot) and byte-identical
across runs for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import BoundExceededError, ConstructionError, MalformedTableError
from .families import (
    DihedralInfinite,
    FreeQuandle,
    GAlexFiniteQuandle,
    GAlexLattice,
    conjugation_automorphism,
    conjugation_quandle,
    dihedral_quandle,
    free_quandle,
    galex_finite,
    galex_lattice,
)
from .groups import (
    GroupTable,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from .quandle import FiniteQuandle, check_quandle_axioms, symmetry_word_automorphism
from .schreier import (
    DEFAULT_VERTEX_BOUND,
    SchreierAction,
    _json_line,
    ball_to_dot,
    ball_to_json_lines,
    bilipschitz_compare,
    bilipschitz_constant,
    build_ball,
    displacement_action,
    ends_estimate,
    inner_action,
)


class SpecError(Exception):
    """A problem with the spec file; carries a stable error code."""

    def __init__(self, code: str, message: str, field: str = ""):
        super().__init__(message)
        self.code = code
        self.field = field

    def as_json(self) -> str:
        return json.dumps(
            {"error": self.code, "field": self.field, "message": str(self)},
            sort_keys=True,
        )


def _emit(record: dict, out=None) -> None:
    (out or sys.stdout).write(_json_line(record) + "\n")


def load_group(value) -> GroupTable:
    if isinstance(value, list):
        try:
            return GroupTable(value)
        except MalformedTableError as e:
            raise SpecError("malformed-table", str(e), "group")
    if not isinstance(value, str):
        raise SpecError("bad-spec", "group must be a table or a name", "group")
    name, colon, arg = value.partition(":")
    stock = dict(cyclic=cyclic_group, symmetric=symmetric_group, alternating=alternating_group, dihedral=dihedral_group)
    if name == "quaternion":
        if colon:
            raise SpecError("bad-spec", f"quaternion takes no argument, got {value!r}", "group")
        return quaternion_group()
    if name not in stock:
        raise SpecError("unknown-group", f"unknown group name {value!r}", "group")
    try:
        n = int(arg)
    except ValueError as e:
        raise SpecError("bad-spec", f"bad group argument: {e}", "group")
    if n < 1:
        raise SpecError("bad-spec", f"group argument must be at least 1, got {value!r}", "group")
    return stock[name](n)


def _load_raw(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise SpecError("bad-spec", f"cannot read spec file: {e}")
    except json.JSONDecodeError as e:
        raise SpecError("bad-json", f"spec file is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise SpecError("bad-spec", "spec file must hold a JSON object")
    return data


def _galex_finite(data: dict):
    group = load_group(data["group"])
    sigma = data["sigma"]
    if isinstance(sigma, dict) and "conjugation-by" in sigma:
        sigma = conjugation_automorphism(group, sigma["conjugation-by"])
    return galex_finite(group, sigma)


def _galex_lattice(data: dict):
    try:
        return galex_lattice(data["t"])
    except ValueError as e:
        raise SpecError("non-unimodular", str(e), "t")


def _free(data: dict):
    if not isinstance(data["alphabet"], list):
        raise ConstructionError(f"alphabet must be a list of letters, got {data['alphabet']!r}")
    return free_quandle(data["alphabet"])


# family: (the fields its spec needs, in the order they are checked, and
# its constructor from the spec)
FAMILIES = {
    "dihedral": (("n",), lambda data: dihedral_quandle(data["n"])),
    "finite-table": (("table",), lambda data: FiniteQuandle(data["table"])),
    "conjugation": (("group",), lambda data: conjugation_quandle(load_group(data["group"]), data.get("subset"))),
    "galex-finite": (("group", "sigma"), _galex_finite),
    "galex-lattice": (("t",), _galex_lattice),
    "free": (("alphabet",), _free),
}


def _construct(data: dict, build=None):
    """The family's constructor, or ``build``, applied to the spec, once the
    spec has a family and every field that family needs (the first one
    missing is named); a construction error becomes a spec error."""
    family = data.get("family")
    fields, constructor = FAMILIES.get(family, ((), None)) if isinstance(family, str) else ((), None)
    missing = ["family"] if family is None else [name for name in fields if name not in data]
    if missing:
        what = "spec needs a \"family\" field" if family is None else f"{family} spec needs \"{missing[0]}\""
        raise SpecError("missing-field", what, missing[0])
    if constructor is None:
        raise SpecError("unknown-family", f"unknown family {family!r}", "family")
    try:
        return (build or constructor)(data)
    except MalformedTableError as e:
        raise SpecError("malformed-table", str(e))
    except ConstructionError as e:
        raise SpecError("bad-construction", f"{e} (witness {e.witness})")


def load_spec(path: str):
    data = _load_raw(path)
    return _construct(data), data


def parse_generator_expressions(backend, expressions) -> list[tuple[str, object]]:
    gens = []
    for expr in expressions:
        factors = expr.split()
        if not factors:
            raise SpecError("bad-generator", f"empty generator expression {expr!r}", "generators")
        word, names = [], []
        for factor in factors:
            invert = factor.endswith("^-1")
            body = factor[:-3] if invert else factor
            if not body.startswith("s:"):
                raise SpecError(
                    "bad-generator",
                    f"factor {factor!r} must look like s:<key> or s:<key>^-1",
                    "generators",
                )
            try:
                word.append((backend.parse_key(body[2:]), -1 if invert else 1))
            except ValueError as e:
                raise SpecError("bad-generator", f"bad element key in {factor!r}: {e}", "generators")
            names.append(f"s{body[2:]}" + ("^-1" if invert else ""))
        gens.append(("*".join(names), symmetry_word_automorphism(backend, word)))
    return gens


def resolve_action(backend, data, args) -> "SchreierAction":
    tag = data.get("action", "inner")
    custom = getattr(args, "generators", None) or data.get("generators")
    if custom is not None and not (isinstance(custom, list) and all(isinstance(e, str) for e in custom)):
        raise SpecError("bad-generator", f"generators must be a list of expression strings, got {custom!r}",
                        "generators")
    gens = parse_generator_expressions(backend, custom) if custom else None
    if tag == "inner":
        return inner_action(backend, gens)
    if tag == "displacement":
        if isinstance(backend, FreeQuandle) and gens is None:
            raise SpecError(
                "bad-spec",
                "the displacement group of a free quandle is not finitely generated; "
                "supply explicit generators",
                "action",
            )
        return displacement_action(backend, gens)
    raise SpecError("bad-spec", f"unknown action {tag!r}", "action")


def default_basepoint(backend):
    if isinstance(backend, FiniteQuandle):
        return 0
    if isinstance(backend, DihedralInfinite):
        return 0
    if isinstance(backend, GAlexLattice):
        return backend.zero()
    if isinstance(backend, FreeQuandle):
        return backend.generator(backend.alphabet[0])
    raise SpecError("bad-spec", f"no default basepoint for {backend!r}")


def cmd_axioms(args) -> int:
    data = _load_raw(args.spec)
    if data.get("family") == "finite-table":
        # check the raw table so a broken one yields a witness, not a
        # construction error
        report = _construct(data, lambda data: check_quandle_axioms(data["table"]))
        backend = None
    else:
        backend = _construct(data)
        if isinstance(backend, FiniteQuandle):
            report = check_quandle_axioms(backend.table)
        else:
            report = backend.check_axioms_window(_window(args))
    record = report.as_dict()
    if backend is not None and not isinstance(backend, FiniteQuandle):
        record["window"] = args.window
    _emit(record)
    return 0 if report.ok else 1


def _based_ball(args, radius: int):
    """The ball of ``radius`` of the spec's action, at ``--base`` or else
    at the family's default basepoint."""
    backend, data = load_spec(args.spec)
    action = resolve_action(backend, data, args)
    base = backend.parse_key(args.base) if args.base else default_basepoint(backend)
    return build_ball(action, base, radius, max_vertices=args.max_vertices)


def cmd_ball(args) -> int:
    ball = _based_ball(args, args.radius)
    text = ball_to_dot(ball) if args.dot else ball_to_json_lines(ball)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_dist(args) -> int:
    backend, data = load_spec(args.spec)
    action = resolve_action(backend, data, args)
    src = backend.parse_key(args.src)
    dst = backend.parse_key(args.dst)
    ball = build_ball(action, src, args.radius, max_vertices=args.max_vertices)
    # found by value, so only the two endpoints are keyed; a distance from the basepoint is certified
    j = ball.find(dst)
    d = None if j is None else int(ball.depth[j])
    _emit(
        {
            "from": ball.basepoint,
            "to": action.key(dst),
            "radius": args.radius,
            "distance": d,
            "status": "certified" if d is not None else "out-of-ball",
        }
    )
    return 0


def cmd_ends(args) -> int:
    if not 0 <= args.inner_radius < args.outer_radius:
        raise SpecError("bad-spec", "need 0 <= inner-radius < outer-radius")
    ball = _based_ball(args, args.outer_radius)
    count = ends_estimate(ball, args.inner_radius)
    _emit(
        {
            "basepoint": ball.basepoint,
            "inner_radius": args.inner_radius,
            "outer_radius": args.outer_radius,
            "ends_estimate": count,
        }
    )
    return 0


def _window(args) -> int:
    """The --window radius of an infinite family, else a bad-spec error."""
    if args.window is None:
        raise SpecError("bad-spec", "infinite families need --window", "window")
    if args.window < 0:
        raise SpecError("bad-spec", f"--window must be at least 0, got {args.window}", "window")
    return args.window


def cmd_components(args) -> int:
    backend, data = load_spec(args.spec)
    if isinstance(backend, FiniteQuandle):
        for part in backend.components():
            _emit({"component": backend.key(part[0]), "size": len(part)})
        return 0
    counts: dict[str, int] = {}
    for x in backend.elements_window(_window(args)):
        key = backend.component_key(x)
        label = backend.key(key) if isinstance(key, tuple) else str(key)
        counts[label] = counts.get(label, 0) + 1
    for label in sorted(counts):
        _emit({"component": label, "count_in_window": counts[label], "window": args.window})
    return 0


def cmd_dis_lattice(args) -> int:
    backend, _data = load_spec(args.spec)
    if not isinstance(backend, GAlexLattice):
        raise SpecError("bad-spec", "dis-lattice needs a galex-lattice spec", "family")
    lat = backend.displacement_lattice()
    _emit(
        {
            "ambient_dim": lat.ambient_dim,
            "rank": lat.rank,
            "basis_columns": [list(c) for c in lat.basis],
            "index_in_ambient": lat.index_in_ambient(),
        }
    )
    return 0


def _split_generator_list(text: str) -> list[str]:
    """Split at commas outside parentheses, so vector keys like s:(0,1)
    stay whole; element keys never nest parentheses."""
    return re.split(r",(?![^()]*\))", text)


def cmd_compare_gensets(args) -> int:
    backend, data = load_spec(args.spec)
    gens = {s: parse_generator_expressions(backend, _split_generator_list(getattr(args, f"genset_{s}"))) for s in "ab"}
    base = backend.parse_key(args.base) if args.base else default_basepoint(backend)
    constant = args.constant
    if constant is None:
        constant = bilipschitz_constant(gens["a"], gens["b"], args.max_word_length, max_vertices=args.max_vertices)
        if constant is None:
            raise SpecError(
                "bad-spec",
                f"generating sets are not mutually expressible within word length "
                f"{args.max_word_length}",
            )
    ball_a, ball_b = (
        build_ball(SchreierAction(f"{backend.backend_id}:genset-{s}", gens[s], backend.key), base, args.radius,
                   max_vertices=args.max_vertices)
        for s in "ab"
    )
    result = bilipschitz_compare(ball_a, ball_b, constant)
    _emit(
        {
            "status": result.status,
            "constant": result.constant,
            "pairs_checked": result.pairs_checked,
            "witness": result.witness,
        }
    )
    return 0 if result.passed else 1


def cmd_growth(args) -> int:
    ball = _based_ball(args, args.radius)
    _emit({"basepoint": ball.basepoint, "radius": args.radius, "sphere_sizes": ball.sphere_sizes()})
    return 0


def _inner_suite(check, q: GAlexFiniteQuandle, spec: str) -> list:
    """[check(group, g)] for the g that sigma is conjugation by, else a
    bad-spec error."""
    g = q.sigma_is_conjugation_by()
    if g is None:
        raise SpecError("bad-spec", "sigma is not conjugation by any element", "sigma")
    return [check(q.group, g, instance=spec)]


# suite: (the backend types it runs on, the bad-spec message for other
# backends, its runner (verify module, backend, args) -> reports)
SUITES = {
    "dis-properties": (FiniteQuandle, "dis-properties runs on finite quandles",
                       lambda v, q, args: v.verify_dis_properties(q, instance=args.spec)),
    "p-equals-dis": (GAlexFiniteQuandle, "p-equals-dis needs a galex-finite spec",
                     lambda v, q, args: [v.verify_p_equals_dis(q, instance=args.spec)]),
    "inner-commutator": (GAlexFiniteQuandle, "inner-commutator needs a galex-finite spec",
                         lambda v, q, args: _inner_suite(v.verify_inner_case_commutator, q, args.spec)),
    "inner-identity-component": (GAlexFiniteQuandle, "inner-identity-component needs a galex-finite spec",
                                 lambda v, q, args: _inner_suite(v.verify_inner_case_identity_component, q, args.spec)),
    "reconstruction": (FiniteQuandle, "reconstruction runs on finite quandles", lambda v, q, args: [
        v.verify_free_transitive_reconstruction(q, q.displacement_group().images, instance=args.spec)]),
    "free-action-isometry": ((FiniteQuandle, DihedralInfinite, GAlexLattice), "suite not available for free quandles",
                             lambda v, q, args: [v.verify_free_action_isometry(q, default_basepoint(q), args.radius,
                                                                               instance=args.spec,
                                                                               max_vertices=args.max_vertices)]),
}


def cmd_verify(args) -> int:
    # imported here so that the other subcommands never load verify.py
    from . import verify

    backend, data = load_spec(args.spec)
    if args.suite not in SUITES:
        raise SpecError("bad-spec", f"unknown suite {args.suite!r}", "suite")
    types, message, run = SUITES[args.suite]
    if not isinstance(backend, types):
        raise SpecError("bad-spec", message, "family")
    ok = True
    for rep in run(verify, backend, args):
        sys.stdout.write(rep.to_json_line() + "\n")
        ok = ok and rep.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles", description="metric and group-theoretic invariants of quandles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, builds_ball=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("spec", help="path to a JSON quandle spec")
        if builds_ball:
            p.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_BOUND)
        p.set_defaults(fn=fn)
        return p

    p = add("axioms", cmd_axioms, builds_ball=False, help="check the quandle axioms")
    p.add_argument("--window", type=int, default=3, help="element window for infinite families")

    p = add("ball", cmd_ball, help="emit a Schreier ball as JSON lines or DOT")
    p.add_argument("--base", help="basepoint key (family default if omitted)")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--generators", nargs="*", help="override generator expressions")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true", help="JSON lines (the default)")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = add("dist", cmd_dist, help="certified distance between two elements")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--generators", nargs="*")

    p = add("ends", cmd_ends, help="estimate the number of ends")
    p.add_argument("--base", help="basepoint key")
    p.add_argument("--inner-radius", type=int, required=True)
    p.add_argument("--outer-radius", type=int, required=True)
    p.add_argument("--generators", nargs="*")

    p = add("components", cmd_components, builds_ball=False, help="connected components")
    p.add_argument("--window", type=int, help="window radius for infinite families")

    add("dis-lattice", cmd_dis_lattice, builds_ball=False, help="displacement translation lattice")

    p = add("compare-gensets", cmd_compare_gensets, help="bi-Lipschitz comparison of two generating sets")
    p.add_argument("--genset-a", required=True, help="comma-separated generator expressions")
    p.add_argument("--genset-b", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--base")
    p.add_argument("--constant", type=int, help="skip the word-length computation")
    p.add_argument("--max-word-length", type=int, default=10)

    p = add("growth", cmd_growth, help="sphere sizes out to a radius")
    p.add_argument("--base")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--generators", nargs="*")

    p = add("verify", cmd_verify, help="run a theorem-checking suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--radius", type=int, default=10, help="ball radius for metric suites")

    return parser


def _check_limits(args) -> None:
    """ValueError (bad input, exit 2) for a vertex cap below 1 or a word
    length below 0."""
    for flag, least in (("max_vertices", 1), ("max_word_length", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.fn(args)
    except SpecError as e:
        sys.stderr.write(e.as_json() + "\n")
        return 2
    except BoundExceededError as e:
        record = {"error": "bound-exceeded", "message": str(e)}
        if e.radius is not None:
            record.update(radius=e.radius, vertices=e.vertices)
        sys.stderr.write(json.dumps(record) + "\n")
        return 3
    except (ConstructionError, ValueError) as e:
        sys.stderr.write(json.dumps({"error": "bad-input", "message": str(e)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
