"""Quandles as metric objects.

A quandle is a set with a binary operation x < y ("x through y") such that
every right translation is an automorphism fixing its own point.  The right
translations generate the inner automorphism group; the zero-exponent-sum
words generate the displacement group.  Both act on the quandle, and the
Schreier graphs of those actions carry path metrics whose large-scale
features (growth, ends, quasi-isometry type) this package computes.
"""

from .errors import BoundExceededError, ConstructionError, MalformedTableError
from .families import (
    ConjugationQuandle,
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
from .lattice import IntegerLattice, LatticeAffine, UnimodularMatrix, column_hnf, dis_lattice
from .perms import PermGroup, Permutation, group_closure, orbits, word_length
from .quandle import (
    AxiomReport,
    FiniteQuandle,
    check_quandle_axioms,
    quandle_word_value,
    symmetry_rewrite,
    symmetry_word_automorphism,
)
from .schreier import (
    LabeledBall,
    SchreierAction,
    ball_from_json_lines,
    ball_to_dot,
    ball_to_json_lines,
    bilipschitz_compare,
    bilipschitz_constant,
    build_ball,
    cayley_action,
    displacement_action,
    ends_estimate,
    inner_action,
    loopless_forest_check,
)
from .verify import (
    TheoremReport,
    verify_dis_properties,
    verify_free_action_isometry,
    verify_free_transitive_reconstruction,
    verify_homogeneous_component_isometry,
    verify_inner_case_commutator,
    verify_inner_case_identity_component,
    verify_p_equals_dis,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BoundExceededError",
    "ConjugationQuandle",
    "ConstructionError",
    "DihedralInfinite",
    "FiniteQuandle",
    "FreeQuandle",
    "GAlexFiniteQuandle",
    "GAlexLattice",
    "GroupTable",
    "IntegerLattice",
    "LabeledBall",
    "LatticeAffine",
    "MalformedTableError",
    "PermGroup",
    "Permutation",
    "SchreierAction",
    "TheoremReport",
    "UnimodularMatrix",
    "alternating_group",
    "ball_from_json_lines",
    "ball_to_dot",
    "ball_to_json_lines",
    "bilipschitz_compare",
    "bilipschitz_constant",
    "build_ball",
    "cayley_action",
    "check_quandle_axioms",
    "column_hnf",
    "conjugation_automorphism",
    "conjugation_quandle",
    "cyclic_group",
    "dihedral_group",
    "dihedral_quandle",
    "dis_lattice",
    "displacement_action",
    "ends_estimate",
    "free_quandle",
    "galex_finite",
    "galex_lattice",
    "group_closure",
    "inner_action",
    "loopless_forest_check",
    "orbits",
    "quandle_word_value",
    "quaternion_group",
    "symmetric_group",
    "symmetry_rewrite",
    "symmetry_word_automorphism",
    "verify_dis_properties",
    "verify_free_action_isometry",
    "verify_free_transitive_reconstruction",
    "verify_homogeneous_component_isometry",
    "verify_inner_case_commutator",
    "verify_inner_case_identity_component",
    "verify_p_equals_dis",
    "word_length",
]
