"""The rigidity counterexample over a monomial bound quiver algebra.

Modules over a MonomialAlgebra are ordinary ``reps.Representation`` objects,
and ``reps.hom`` and ``reps.ext1_dim`` serve them as they serve path
algebras. This module builds the ten dimensional algebra and its two
modules, and checks every claim about them: non-isomorphism is read off
their tops, and the syzygies off the projective dimension vectors, which
``reps.projective_dims`` counts from surviving paths.
"""

from __future__ import annotations

from . import linalg
from .quivers import Quiver
from .reps import (
    MonomialAlgebra,
    Representation,
    atilde21_tube_modules,
    ext1_dim,
    hom,
    projective_dims,
)

__all__ = [
    "build_counterexample_algebra",
    "counterexample_modules",
    "counterexample_report",
]


def _top_dims(m: Representation) -> list[int]:
    """Dimension vector of top(M): at each vertex v, M_v modulo the images of
    the arrows into v."""
    arrows = m.quiver.arrows
    top = []
    for v, dv in enumerate(m.dims, 1):
        # the matrices of the arrows into v side by side span the radical at v
        into = [a for a, (_, t) in enumerate(arrows) if t == v]
        top.append(dv - linalg.rank([[x for a in into for x in m.mats[a][r]] for r in range(dv)]))
    return top


def _syzygy_dims(m: Representation) -> list[int]:
    """Dimension vector of the kernel of a projective cover P0 -> M, that is
    dim P0 minus dim M; P0 holds one P_v per dimension of top(M)_v."""
    covers = [projective_dims(m.algebra, v) for v in range(1, m.quiver.n + 1)]
    return [
        sum(k * p[j] for k, p in zip(_top_dims(m), covers)) - dj
        for j, dj in enumerate(m.dims)
    ]


# ---------------------------------------------------------------------------
# the rigidity counterexample


def build_counterexample_algebra() -> MonomialAlgebra:
    """Ten dimensional algebra on an oriented triangle with a doubled side.

    Vertices 1, 2, 3; arrows a: 1->3, b: 3->2, g: 2->1 and a second arrow
    c: 1->3; the three compositions along the triangle through a vanish:
    ab = bg = ga = 0. The doubled side keeps paths through c alive, which
    is what makes the two distinguished modules below non-isomorphic while
    sharing a dimension vector.
    """
    q = Quiver(3, ((1, 3), (3, 2), (2, 1), (1, 3)))
    return MonomialAlgebra(q, ((0, 1), (1, 2), (2, 0)))


def counterexample_modules(algebra: MonomialAlgebra) -> tuple[Representation, Representation]:
    """The two rigid modules with dimension vector (1, 1, 1).

    The first is the string along c then b (1 -> 3 -> 2), the second the
    string along g then c (2 -> 1 -> 3).
    """
    one = [[1]]
    m = Representation.from_dims(algebra, (1, 1, 1), {1: one, 3: one})
    n = Representation.from_dims(algebra, (1, 1, 1), {2: one, 3: one})
    return m, n


def counterexample_report() -> dict:
    """Compute and check every claim of the rigidity counterexample.

    Two modules over the ten dimensional algebra share the dimension vector
    (1, 1, 1), are both rigid, yet are not isomorphic: their tops are S1 and
    S2. Their common lift to the ambient triangulated category is the
    quasi-length-two tube module of the acyclic affine triangle, whose
    self-extension there is

        ext(lift, lift) + ext(lift, lift) = 2,

    so the lift is not rigid and uniqueness results do not apply to it.
    """
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    # isomorphic modules have isomorphic tops
    top_m, top_n = _top_dims(m), _top_dims(n)
    if top_m == top_n:
        raise AssertionError(f"the two modules must have different tops, got {top_m} and {top_n}")
    report = {
        "algebra_dimension": alg.dimension,
        "projective_dims": {str(i): list(projective_dims(alg, i)) for i in (1, 2, 3)},
        "dims_M": list(m.dims),
        "dims_N": list(n.dims),
        "same_dimension_vector": m.dims == n.dims,
        "ext1_M_M": ext1_dim(m, m),
        "ext1_N_N": ext1_dim(n, n),
        "hom_M_N": hom(m, n).dim,
        "hom_N_M": hom(n, m).dim,
        "isomorphic": False,
        "syzygy_M_dims": _syzygy_dims(m),
        "syzygy_N_dims": _syzygy_dims(n),
    }
    _, _, tube = atilde21_tube_modules()
    report["lift_self_extension"] = ext1_dim(tube, tube) + ext1_dim(tube, tube)
    if not report["same_dimension_vector"]:
        raise AssertionError("the two modules must share a dimension vector")
    if report["ext1_M_M"] or report["ext1_N_N"]:
        raise AssertionError("both modules must be rigid")
    if report["lift_self_extension"] != 2:
        raise AssertionError(f"the lift must have self-extension 2, got {report['lift_self_extension']}")
    return report
