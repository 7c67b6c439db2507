"""Exact engine for acyclic cluster algebras, quiver representations and
cluster categories, plus the verification CLI wired to it."""

from .quivers import (
    Quiver,
    builtin_quiver,
    classify_diagram,
    exchange_matrix,
    load_quiver_json,
    mutate_matrix,
    positive_roots,
    quiver_from_matrix,
)
from .laurent import (
    LaurentPoly,
    Seed,
    den_injectivity_check,
    explore_exchange_graph,
    initial_seed,
    seed_mutate,
)
from .reps import (
    MonomialAlgebra,
    Representation,
    ext1_dim,
    hom,
    indecomposable_from_root,
)
from .bound import counterexample_report
from .category import (
    GammaC,
    den_vs_hom_crosscheck,
    mutate_tilting,
    theorem1_injectivity,
)
from .tilting import (
    TiltingModule,
    enumerate_tilting_modules,
    prop8_descent,
    torsion_class,
)

__all__ = [
    "Quiver",
    "builtin_quiver",
    "classify_diagram",
    "exchange_matrix",
    "load_quiver_json",
    "mutate_matrix",
    "positive_roots",
    "quiver_from_matrix",
    "LaurentPoly",
    "Seed",
    "den_injectivity_check",
    "explore_exchange_graph",
    "initial_seed",
    "seed_mutate",
    "Representation",
    "ext1_dim",
    "hom",
    "indecomposable_from_root",
    "MonomialAlgebra",
    "counterexample_report",
    "GammaC",
    "den_vs_hom_crosscheck",
    "mutate_tilting",
    "theorem1_injectivity",
    "TiltingModule",
    "enumerate_tilting_modules",
    "prop8_descent",
    "torsion_class",
]
