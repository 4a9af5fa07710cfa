"""Run one `quandles` CLI call with a span around every call into a layer.

Usage: python trace_child.py SPANS_OUT <quandles argv...>

Wraps the public functions of the package's layers, rebinds each wrapper
in every `quandles` module that imported the function by name, then calls
`quandles.cli.main(argv)`.  Spans stay in memory and are written to
SPANS_OUT as JSON when the call ends; the exit code is main's.

A span is [name, start, end, parent, attrs], with parent the index of
the enclosing span (or -1).  `LabeledBall.distance` runs once per pair
(millions of times in a comparison), so it gets no span of its own: its
calls, time and certified answers are summed into the enclosing span's
attrs as "leaf_calls", "leaf_s" and "leaf_hits".
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(args, result)`` adds counts."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, clock(), 0.0, parent, {}]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()
            if attrs is not None:
                record[4].update(attrs(args, result))
            return result

        return wrapper

    def leaf(self, fn):
        """Wrap a hot per-pair method: totals go to the enclosing span."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            a = self.spans[self.stack[-1]][4]
            a["leaf_calls"] = a.get("leaf_calls", 0) + 1
            a["leaf_s"] = a.get("leaf_s", 0.0) + dt
            if result is not None:
                a["leaf_hits"] = a.get("leaf_hits", 0) + 1
            return result

        return wrapper


def _backend(action_id: str) -> str:
    for prefix, label in (("dihedral:inf", "dihedral-inf"), ("galex:lattice", "lattice"), ("free", "free")):
        if action_id.startswith(prefix):
            return label
    return "finite"


def _ball_attrs(args, ball):
    return {"backend": _backend(ball.backend_id), "vertices": ball.vertex_count, "edges": len(ball.edges)}


def _closure_attrs(args, elements):
    # each element is multiplied by each generator once: computed, not counted
    return {"elements": len(elements), "products": len(elements) * len(args[0])}


def _axiom_attrs(args, report):
    n = len(args[0])
    return {"triples": n**3 if report.ok else 0}


def _window_attrs(args, report):
    backend, radius = args
    width = len(backend.elements_window(radius)) if report.ok else 0
    return {"triples": width**3}


def install(tracer: Tracer) -> None:
    import quandles
    from quandles import cli, families, groups, perms, quandle, schreier, verify

    functions = [
        (cli, "parse_generator_expressions", "cli.parse_generators", None),
        (schreier, "build_ball", "schreier.build_ball", _ball_attrs),
        (schreier, "ends_estimate", "schreier.ends", None),
        (schreier, "bilipschitz_compare", "schreier.compare", lambda a, r: {"pairs": r.pairs_checked}),
        (schreier, "bilipschitz_constant", "schreier.constant", None),
        (schreier, "ball_to_json_lines", "schreier.serialize", lambda a, r: {"bytes": len(r.encode())}),
        (schreier, "ball_to_dot", "schreier.serialize", lambda a, r: {"bytes": len(r.encode())}),
        (perms, "group_closure", "perms.closure", _closure_attrs),
        (perms, "orbits", "perms.orbits", None),
        (perms, "quotient_is_cyclic", "perms.quotient", None),
        (quandle, "check_quandle_axioms", "quandle.axioms", _axiom_attrs),
        (verify, "verify_dis_properties", "verify.dis_properties", None),
        (verify, "verify_free_transitive_reconstruction", "verify.reconstruction", None),
        (verify, "verify_inner_case_commutator", "verify.inner_commutator", None),
        (verify, "verify_p_equals_dis", "verify.p_equals_dis", None),
        (verify, "verify_free_action_isometry", "verify.free_action_isometry", None),
    ]
    functions += [
        (families, f, "families.construct", None)
        for f in ("dihedral_quandle", "conjugation_quandle", "galex_finite", "galex_lattice", "free_quandle")
    ]
    functions += [
        (groups, f, "groups.construct", None)
        for f in ("cyclic_group", "symmetric_group", "alternating_group", "dihedral_group", "quaternion_group")
    ]

    replace = {}
    for module, attr, name, attrs in functions:
        fn = getattr(module, attr)
        replace[id(fn)] = tracer.span(name, fn, attrs)
    # `from .schreier import build_ball` and the like copy the name into
    # the importing module, so rebind every copy, not just the original
    for modname, module in list(sys.modules.items()):
        if modname == "quandles" or modname.startswith("quandles."):
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])

    for cls in (families.DihedralInfinite, families.GAlexLattice, families.FreeQuandle):
        cls.check_axioms_window = tracer.span("families.window_axioms", cls.check_axioms_window, _window_attrs)
    quandles.LabeledBall.distance = tracer.leaf(quandles.LabeledBall.distance)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from quandles import cli

    run = tracer.span("cli.main", cli.main)
    try:
        code = run(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
