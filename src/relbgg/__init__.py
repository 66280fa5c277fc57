"""Exact integer toolkit for nested parabolic pairs in semisimple Lie algebras.

Given a diagram type and two nested crossed-node sets, the package computes
the induced bigrading and its filtration modules, tangent-bundle subquotient
ranks, algebraic torsion-admissibility verdicts, and the shapes of relative
BGG sequences, all in exact integer arithmetic, with an elementary-matrix
realization of sl(m) as an independent cross-check.

Public names resolve on first use: ``import relbgg`` loads no submodule, and
reading ``relbgg.bigrade`` imports ``relbgg.grading`` once and keeps the value
here.  Likewise each CLI subcommand loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names it defines.
_MODULE_NAMES = {
    "roots": "InternalCheckError RootSystem Weight build_root_system reflect",
    "grading": "Bidegree Bigrading FiltrationReport ModuleDescriptor ParabolicPair RankReport "
    "SubalgebraInfo bigrade filtration subalgebra_profile tangent_ranks",
    "dynkin": "DynkinLabel LabelVerdict parse_label print_label validate_label",
    "bgg": "BGGEntry BGGSequence HasseDiagram WeylWord affine_act relative_bgg_sequence relative_hasse",
    "torsion": "Corollary33Verdict Geometry TorsionComponent TorsionSupport TorsionVerdict catalog "
    "corollary_33_check involutivity_check legendrean_catalog path_geometry_catalog theorem_322_check",
    "oracle": "BlockStructure OracleReport block_structure_from_pair commutator_audit",
}
_HOME = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
