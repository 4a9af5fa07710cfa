"""The benchmark's workloads: fixed lists of `quandles` CLI jobs.

Every job is one `python -m quandles <cmd> <spec> ...` invocation.  The
seed only ever changes an input by an isomorphism of the quandle, so the
work a job does and the mathematical fields of its answer are the same for
every seed:

* lattice quandles `x ◁ y = t(x - y) + y` are moved by a translation v, which
  is a quandle automorphism: the ball at v under the symmetries of
  v, v + e1, v + e2 is a copy of the default ball at the origin;
* the dihedral quandle on Z is moved by a translation in the same way;
* free-quandle letters get fresh single-letter names, in a seeded order;
* R_n is vertex-transitive, so the basepoint is any element;
* Alexander quandles twisted by conjugation take a conjugating element from
  one conjugacy class, which gives isomorphic quandles.

Translation vectors keep every coordinate the ball reaches at the same
number of digits, so output sizes do not depend on the seed either.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import permutations

WORKLOADS = ("ball-build", "pair-metrics", "group-verify")

LATTICE_CAT = [[2, 1], [1, 1]]  # hyperbolic: exponential growth
LATTICE_ROT90 = [[0, -1], [1, 0]]  # elliptic: polynomial growth


@dataclass
class Job:
    """One CLI invocation.  ``spec`` is written to ``specs/<id>.json`` and
    that relative path is passed on the command line, so the `instance`
    field of `verify` output is the same on every machine."""

    id: str
    command: str
    spec: dict
    options: list[str]
    kind: str  # which digest in `digest()` reads the output
    expect: dict = field(default_factory=dict)  # seed-dependent fields, checked as given

    @property
    def spec_path(self) -> str:
        return f"specs/{self.id}.json"

    @property
    def argv(self) -> list[str]:
        return [self.command, self.spec_path, *self.options]


def vec_key(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _shift(rng: random.Random) -> tuple[int, int]:
    # balls below reach at most 4180 from their basepoint, so every
    # coordinate stays a positive five-digit number
    return rng.randrange(20000, 80000), rng.randrange(20000, 80000)


def _lattice(t, v) -> dict:
    """The default inner generators s_0, s_e1, s_e2, conjugated by the
    translation to v."""
    gens = [vec_key(v), vec_key((v[0] + 1, v[1])), vec_key((v[0], v[1] + 1))]
    return {"family": "galex-lattice", "t": t, "generators": [f"s:{g}" for g in gens]}


def _letters(rng: random.Random, k: int) -> list[str]:
    return rng.sample("abcdefghijklmnopqrstuvwxyz", k)


def _free(letters) -> dict:
    return {"family": "free", "alphabet": list(letters)}


def _line_point(rng: random.Random) -> int:
    # the dihedral jobs reach at most 40000 from their basepoint, so keys
    # stay six-digit numbers
    return rng.randrange(200000, 800000)


def _named_group(name: str):
    """Elements and product of a named group, in the order the CLI uses
    (see `quandles.groups`): sorted permutation tuples for symmetric and
    alternating groups, (rotation, flip) pairs for dihedral groups."""
    kind, _, arg = name.partition(":")
    n = int(arg)
    if kind in ("symmetric", "alternating"):
        els = sorted(permutations(range(n)))
        if kind == "alternating":
            els = [p for p in els if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]
        return els, lambda a, b: tuple(b[v] for v in a)
    if kind == "dihedral":
        els = [(r, f) for f in (0, 1) for r in range(n)]

        def mult(a, b):
            return ((b[0] - a[0]) % n if b[1] else (a[0] + b[0]) % n, a[1] ^ b[1])

        return els, mult
    raise ValueError(f"no element list for group {name!r}")


def conjugacy_class(group: str, index: int) -> list[int]:
    els, mult = _named_group(group)
    pos = {e: i for i, e in enumerate(els)}
    x = els[index]
    identity = next(e for e in els if all(mult(e, y) == y for y in els))
    inverse = {h: next(g for g in els if mult(h, g) == identity) for h in els}
    return sorted({pos[mult(mult(inverse[h], x), h)] for h in els})


def _twisted(rng: random.Random, group: str) -> dict:
    g = rng.choice(conjugacy_class(group, 1))
    return {"family": "galex-finite", "group": group, "sigma": {"conjugation-by": g}}


def ball_build(rng: random.Random) -> list[Job]:
    """Large balls and few queries: `build_ball` on every backend, plus the
    two serializers."""
    v1, v2, v3 = _shift(rng), _shift(rng), _shift(rng)
    abc, ab = _letters(rng, 3), _letters(rng, 2)
    w = _line_point(rng)
    k = rng.randrange(1001)
    return [
        Job("growth-lattice-r9", "growth", _lattice(LATTICE_CAT, v1),
            ["--radius", "9", "--base", vec_key(v1)], "growth", {"basepoint": vec_key(v1)}),
        Job("growth-free3-r6", "growth", _free(abc), ["--radius", "6"], "growth",
            {"basepoint": f"{abc[0]}^1"}),
        Job("ends-rot90-80", "ends", _lattice(LATTICE_ROT90, v2),
            ["--inner-radius", "20", "--outer-radius", "80", "--base", vec_key(v2)], "ends",
            {"basepoint": vec_key(v2)}),
        Job("ends-dinf-20000", "ends", {"family": "dihedral", "n": "inf", "action": "displacement"},
            ["--inner-radius", "5000", "--outer-radius", "20000", "--base", str(w)], "ends",
            {"basepoint": str(w)}),
        Job("growth-r1001-r2", "growth", {"family": "dihedral", "n": 1001},
            ["--radius", "2", "--base", str(k)], "growth", {"basepoint": str(k)}),
        Job("ball-dot-lattice-r8", "ball", _lattice(LATTICE_CAT, v3),
            ["--radius", "8", "--base", vec_key(v3), "--dot"], "dot", {"basepoint": vec_key(v3)}),
        Job("ball-json-free2-r8", "ball", _free(ab), ["--radius", "8"], "json-lines",
            {"basepoint": f"{ab[0]}^1"}),
    ]


def pair_metrics(rng: random.Random) -> list[Job]:
    """Moderate balls and many certified pair distances: the query side of
    `schreier` (`distance`, `bilipschitz_compare`)."""
    w = _line_point(rng)
    x, y = _letters(rng, 2)
    p, q, r = _letters(rng, 3)
    u = _line_point(rng)
    s, t = _letters(rng, 2)
    return [
        Job("compare-dinf-r600", "compare-gensets", {"family": "dihedral", "n": "inf"},
            ["--genset-a", f"s:{w},s:{w + 1}", "--genset-b", f"s:{w},s:{w + 1},s:{w + 2}",
             "--radius", "600", "--base", str(w)], "compare"),
        Job("compare-free2-r6", "compare-gensets", _free([x, y]),
            ["--genset-a", f"s:{x}^1,s:{y}^1", "--genset-b", f"s:{x}^1,s:{y}^1,s:{x}^{y}",
             "--radius", "6"], "compare"),
        Job("compare-free3-r4", "compare-gensets", _free([p, q, r]),
            ["--genset-a", f"s:{p}^1,s:{q}^1,s:{r}^1",
             "--genset-b", f"s:{p}^1,s:{q}^1,s:{r}^1,s:{p}^{q}", "--radius", "4"], "compare"),
        Job("isometry-rot90-r20", "verify", {"family": "galex-lattice", "t": LATTICE_ROT90},
            ["--suite", "free-action-isometry", "--radius", "20"], "verify"),
        # one certified and one out-of-ball answer per family give
        # schreier.certified_ratio a base
        Job("dist-dinf-near", "dist", {"family": "dihedral", "n": "inf", "action": "displacement"},
            ["--from", str(u), "--to", str(u + 400), "--radius", "300"], "dist",
            {"from": str(u), "to": str(u + 400)}),
        Job("dist-dinf-far", "dist", {"family": "dihedral", "n": "inf", "action": "displacement"},
            ["--from", str(u), "--to", str(u + 1300), "--radius", "300"], "dist",
            {"from": str(u), "to": str(u + 1300)}),
        Job("dist-free2-near", "dist", _free([s, t]),
            ["--from", f"{s}^1", "--to", f"{s}^{t}*{s}*{t}^-1", "--radius", "7"], "dist",
            {"from": f"{s}^1", "to": f"{s}^{t}*{s}*{t}^-1"}),
        Job("dist-free2-other", "dist", _free([s, t]),
            ["--from", f"{s}^1", "--to", f"{t}^{s}", "--radius", "7"], "dist",
            {"from": f"{s}^1", "to": f"{t}^{s}"}),
    ]


def group_verify(rng: random.Random) -> list[Job]:
    """Finite algebra with almost no balls: `perms` closure, the axiom
    checks (finite and window) and the `verify` suites."""
    ab = _letters(rng, 2)
    return [
        Job("axioms-r501", "axioms", {"family": "dihedral", "n": 501}, [], "axioms"),
        Job("axioms-lattice-w3", "axioms", {"family": "galex-lattice", "t": LATTICE_CAT},
            ["--window", "3"], "axioms"),
        Job("axioms-free2-w2", "axioms", _free(ab), ["--window", "2"], "axioms"),
        Job("dis-conj-s4", "verify", {"family": "conjugation", "group": "symmetric:4"},
            ["--suite", "dis-properties"], "verify"),
        Job("dis-r21", "verify", {"family": "dihedral", "n": 21}, ["--suite", "dis-properties"], "verify"),
        Job("reconstruction-r101", "verify", {"family": "dihedral", "n": 101},
            ["--suite", "reconstruction"], "verify"),
        Job("inner-commutator-a5", "verify", _twisted(rng, "alternating:5"),
            ["--suite", "inner-commutator"], "verify"),
        Job("p-equals-dis-d4", "verify", _twisted(rng, "dihedral:4"), ["--suite", "p-equals-dis"], "verify"),
        Job("p-equals-dis-s4", "verify", _twisted(rng, "symmetric:4"), ["--suite", "p-equals-dis"], "verify"),
    ]


_WORKLOAD_JOBS = {"ball-build": ball_build, "pair-metrics": pair_metrics, "group-verify": group_verify}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return _WORKLOAD_JOBS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# result digests: the mathematical fields of a job's output


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _sphere_sizes(distances) -> list[int]:
    sizes = [0] * (max(distances) + 1)
    for d in distances:
        sizes[d] += 1
    return sizes


def _digest_json_lines(text: str) -> tuple[dict, dict]:
    recs = _records(text)
    header = recs[0]
    distances = [r["distance"] for r in recs if r["type"] == "vertex"]
    edges = sum(1 for r in recs if r["type"] == "edge")
    digest = {
        "radius": header["radius"],
        "generators": len(header["generators"]),
        "sphere_sizes": _sphere_sizes(distances),
        "edges": edges,
    }
    return digest, {"basepoint": header["basepoint"]}


def _digest_dot(text: str) -> tuple[dict, dict]:
    lines = text.splitlines()
    comment = lines[1].split()
    fields = dict(part.split("=", 1) for part in comment[1:])
    distances, edges = [], 0
    for line in lines[2:-1]:
        if " -- " in line:
            edges += 1
        else:
            distances.append(int(line.rsplit(" d=", 1)[1].split('"', 1)[0]))
    digest = {"radius": int(fields["radius"]), "sphere_sizes": _sphere_sizes(distances), "edges": edges}
    return digest, {"basepoint": fields["basepoint"]}


def _digest_verify(text: str) -> tuple[list, dict]:
    out = []
    for rec in _records(text):
        details = rec.get("details") or {}
        kept = {k: v for k, v in details.items() if isinstance(v, (bool, int))}
        out.append({"statement": rec["statement"], "pass": rec["pass"], **kept})
    return out, {}


def digest(kind: str, text: str) -> tuple[object, dict]:
    """Split a job's stdout into (seed-invariant digest, seed-dependent
    fields).  The digest is compared with the stored reference, the other
    fields with the job's ``expect``."""
    if kind == "json-lines":
        return _digest_json_lines(text)
    if kind == "dot":
        return _digest_dot(text)
    if kind == "verify":
        return _digest_verify(text)
    (rec,) = _records(text)
    if kind == "growth":
        return {"radius": rec["radius"], "sphere_sizes": rec["sphere_sizes"]}, {"basepoint": rec["basepoint"]}
    if kind == "ends":
        keep = ("inner_radius", "outer_radius", "ends_estimate")
        return {k: rec[k] for k in keep}, {"basepoint": rec["basepoint"]}
    if kind == "dist":
        keep = ("radius", "distance", "status")
        return {k: rec[k] for k in keep}, {"from": rec["from"], "to": rec["to"]}
    if kind == "compare":
        return {k: rec[k] for k in ("status", "constant", "pairs_checked")}, {}
    if kind == "axioms":
        return rec, {}
    raise ValueError(f"unknown digest kind {kind!r}")
