"""Helpers shared by the test modules."""

import json
import os
import tracemalloc
from pathlib import Path

from quandles.perms import Permutation
from quandles.schreier import SchreierAction, ball_from_json_lines, ball_to_json_lines


def depths(ball):
    """Key -> basepoint distance, in vertex order."""
    return dict(zip(ball.keys, ball.depth.tolist()))


def elements(group):
    """The elements of an enumerated ``PermGroup`` as checked
    ``Permutation``s, in row order, for the tests that compare with
    frozen loops over ``Permutation`` products."""
    return [Permutation(tuple(row)) for row in group.images.tolist()]


def rewired(ball, edges):
    """The ball read back from its JSON lines with the edge records
    replaced by ``edges``: the same vertices, numbering, depths and
    elements over another graph."""
    records = [json.loads(line) for line in ball_to_json_lines(ball).splitlines()]
    records = [r for r in records if r["type"] != "edge"]
    records += [{"type": "edge", "u": u, "v": v, "label": name} for u, v, name in edges]
    copy = ball_from_json_lines("\n".join(map(json.dumps, records)))
    copy.elements = ball.elements
    return copy


def src_env():
    """The environment with the package's ``src`` first on PYTHONPATH, for
    child interpreters that import it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def traced_peak(build):
    """``build()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def key_counting(action):
    """``action`` with a key function that records every point it keys:
    returns the new action and the list of keyed points."""
    keyed = []

    def key(x):
        keyed.append(x)
        return action.key(x)

    return SchreierAction(action.backend_id, action.generators, key, apply=action.apply), keyed
