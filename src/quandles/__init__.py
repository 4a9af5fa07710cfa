"""Quandles as metric objects.

A quandle is a set with a binary operation x < y ("x through y") such that
every right translation is an automorphism fixing its own point.  The right
translations generate the inner automorphism group; the zero-exponent-sum
words generate the displacement group.  Both act on the quandle, and the
Schreier graphs of those actions carry path metrics whose large-scale
features (growth, ends, quasi-isometry type) this package computes.

The exports load lazily (PEP 562): ``import quandles`` imports no numpy,
and each name imports its home module on first use.
"""

import importlib

from .errors import BoundExceededError, ConstructionError, MalformedTableError

__version__ = "0.1.0"

_HOMES = {
    "families": """ConjugationQuandle DihedralInfinite FreeQuandle GAlexFiniteQuandle
        GAlexLattice conjugation_automorphism conjugation_quandle dihedral_quandle
        free_quandle galex_finite galex_lattice""",
    "groups": """GroupTable alternating_group cyclic_group dihedral_group quaternion_group
        symmetric_group""",
    "lattice": "IntegerLattice LatticeAffine UnimodularMatrix column_hnf dis_lattice",
    "perms": "PermGroup Permutation group_closure orbits",
    "quandle": """AxiomReport FiniteQuandle check_quandle_axioms quandle_word_value
        symmetry_rewrite symmetry_word_automorphism""",
    "schreier": """LabeledBall SchreierAction ball_from_json_lines ball_to_dot
        ball_to_json_lines bilipschitz_compare bilipschitz_constant build_ball
        cayley_action displacement_action ends_estimate inner_action loopless_forest_check""",
    "verify": """TheoremReport verify_dis_properties verify_free_action_isometry
        verify_free_transitive_reconstruction verify_inner_case_commutator
        verify_inner_case_identity_component verify_p_equals_dis""",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(["BoundExceededError", "ConstructionError", "MalformedTableError", *_HOME])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
