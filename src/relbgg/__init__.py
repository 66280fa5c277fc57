"""Exact integer toolkit for nested parabolic pairs in semisimple Lie algebras.

Given a diagram type and two nested crossed-node sets, the package computes
the induced bigrading and its filtration modules, tangent-bundle subquotient
ranks, algebraic torsion-admissibility verdicts, and the shapes of relative
BGG sequences, all in exact integer arithmetic, with an elementary-matrix
realization of sl(m) as an independent cross-check.
"""

from .bgg import (
    BGGEntry,
    BGGSequence,
    HasseDiagram,
    InternalCheckError,
    WeylWord,
    affine_act,
    relative_bgg_sequence,
    relative_hasse,
)
from .dynkin import DynkinLabel, LabelVerdict, parse_label, print_label, validate_label
from .grading import (
    Bidegree,
    Bigrading,
    FiltrationReport,
    ModuleDescriptor,
    ParabolicPair,
    RankReport,
    SubalgebraInfo,
    bigrade,
    filtration,
    subalgebra_profile,
    tangent_ranks,
)
from .oracle import BlockStructure, OracleReport, block_structure_from_pair, commutator_audit
from .roots import (
    RootSystem,
    Weight,
    build_root_system,
    reflect,
)
from .torsion import (
    Corollary33Verdict,
    Geometry,
    TorsionComponent,
    TorsionSupport,
    TorsionVerdict,
    catalog,
    corollary_33_check,
    involutivity_check,
    legendrean_catalog,
    path_geometry_catalog,
    theorem_322_check,
)

__version__ = "0.1.0"

__all__ = [
    "BGGEntry",
    "BGGSequence",
    "Bidegree",
    "Bigrading",
    "BlockStructure",
    "Corollary33Verdict",
    "DynkinLabel",
    "FiltrationReport",
    "Geometry",
    "HasseDiagram",
    "InternalCheckError",
    "LabelVerdict",
    "ModuleDescriptor",
    "OracleReport",
    "ParabolicPair",
    "RankReport",
    "RootSystem",
    "SubalgebraInfo",
    "TorsionComponent",
    "TorsionSupport",
    "TorsionVerdict",
    "WeylWord",
    "Weight",
    "affine_act",
    "bigrade",
    "block_structure_from_pair",
    "build_root_system",
    "catalog",
    "commutator_audit",
    "corollary_33_check",
    "filtration",
    "involutivity_check",
    "legendrean_catalog",
    "parse_label",
    "path_geometry_catalog",
    "print_label",
    "reflect",
    "relative_bgg_sequence",
    "relative_hasse",
    "subalgebra_profile",
    "tangent_ranks",
    "theorem_322_check",
    "validate_label",
]
