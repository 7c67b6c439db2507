"""Projective presentations and Ext over monomial bound quiver algebras.

Modules over a MonomialAlgebra are ordinary ``reps.Representation`` objects;
this module adds what the hereditary theory does not need. Ext^1 is computed
from a projective presentation: applying Hom(-, N) to
0 -> Omega M -> P0 -> M -> 0 gives

    dim Ext^1(M, N) = dim Hom(Omega M, N) - dim Hom(P0, N) + dim Hom(M, N)

which needs nothing beyond the morphism solver and exact kernels, and holds
for any algebra, hereditary or not.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .quivers import Quiver
from .reps import (
    MonomialAlgebra,
    Representation,
    atilde21_tube_modules,
    direct_sum,
    ext1_dim,
    hom,
    is_isomorphic,
)

__all__ = [
    "projective",
    "ext1_bqa",
    "syzygy",
    "projective_cover",
    "build_counterexample_algebra",
    "counterexample_modules",
    "counterexample_report",
]

Matrix = list[list[Fraction]]


def projective(algebra: MonomialAlgebra, i: int) -> Representation:
    """Indecomposable projective at vertex i, with path basis; an arrow acts
    by appending itself when the longer path survives the relations."""
    q = algebra.quiver
    basis = algebra.basis_from(i)
    dims = tuple(len(g) for g in basis)
    index = {p: (v, k) for v in range(q.n) for k, p in enumerate(basis[v])}
    entries = {}
    for idx, (s, t) in enumerate(q.arrows):
        block = linalg.zeros(dims[t - 1], dims[s - 1])
        for col, p in enumerate(basis[s - 1]):
            longer = p + (idx,)
            if longer in index:
                v, row = index[longer]
                assert v == t - 1
                block[row][col] = Fraction(1)
        entries[idx] = block
    return Representation.from_dims(algebra, dims, entries)


def _top_lifts(m: Representation) -> list[list[list[Fraction]]]:
    """Per vertex, standard basis vectors spanning a complement of the radical
    (the sum of all incoming arrow images).

    e_k is taken iff it is not in the span of the radical and the e_j before
    it, that is iff no radical vector has its last nonzero entry at k: iff k
    is not a pivot of the radical's echelon form with the columns reversed.
    """
    q = m.algebra.quiver
    lifts: list[list[list[Fraction]]] = []
    for v in range(1, q.n + 1):
        dv = m.dims[v - 1]
        reversed_rows: list[list[Fraction]] = []
        for idx, (s, t) in enumerate(q.arrows):
            if t == v:
                rows = linalg.transpose(m.mat(idx), m.dims[s - 1])
                reversed_rows.extend(row[::-1] for row in rows)
        _, pivots = linalg.rref(reversed_rows)
        radical = {dv - 1 - c for c in pivots}
        lifts.append(
            [[Fraction(int(r == k)) for r in range(dv)] for k in range(dv) if k not in radical]
        )
    return lifts


def projective_cover(m: Representation) -> tuple[Representation, list[Matrix]]:
    """Minimal projective cover P0 -> M.

    Returns P0 and the vertexwise matrices of the covering map; surjectivity
    is checked, and the block layout follows direct_sum order.
    """
    alg = m.algebra
    q = alg.quiver
    lifts = _top_lifts(m)
    blocks: list[tuple[int, list[Fraction]]] = []
    for v in range(1, q.n + 1):
        for vec in lifts[v - 1]:
            blocks.append((v, vec))
    p0 = direct_sum(Representation.zero(alg), *(projective(alg, v) for v, _ in blocks))
    cover: list[Matrix] = []
    for j in range(1, q.n + 1):
        cols: list[list[Fraction]] = []
        for v, vec in blocks:
            for p in alg.basis_from(v)[j - 1]:
                action = m.path_action(v, p)
                cols.append(linalg.mat_vec(action, vec))
        mat_j = linalg.transpose(cols, m.dims[j - 1])
        linalg.shape_of(mat_j, m.dims[j - 1], p0.dims[j - 1])
        if linalg.rank([list(r) for r in mat_j]) != m.dims[j - 1]:
            raise AssertionError("cover map is not surjective")
        cover.append(mat_j)
    return p0, cover


def syzygy(m: Representation) -> tuple[Representation, Representation]:
    """Kernel of the projective cover, as a module; returns (Omega M, P0)."""
    alg = m.algebra
    q = alg.quiver
    p0, cover = projective_cover(m)
    kernels = [linalg.nullspace([list(r) for r in cover[v]], p0.dims[v]) for v in range(q.n)]
    dims = tuple(len(k) for k in kernels)
    mats = []
    for idx, (s, t) in enumerate(q.arrows):
        src, dst = kernels[s - 1], kernels[t - 1]
        # coordinates of the arrow images in the target kernel basis, in one
        # elimination; with an empty basis only a zero image solves
        images = linalg.transpose([linalg.mat_vec(p0.mats[idx], vec) for vec in src], p0.dims[t - 1])
        coords = linalg.solve_matrix(linalg.transpose(dst, p0.dims[t - 1]), images, len(dst))
        if coords is None:
            raise AssertionError("kernel is not arrow-stable")
        mats.append(coords)
    omega = Representation(alg, dims, mats)
    return omega, p0


def ext1_bqa(m: Representation, n: Representation) -> int:
    """dim Ext^1 over the modules' common algebra, from a projective
    presentation; valid with or without relations."""
    omega, p0 = syzygy(m)
    value = hom(omega, n).dim - hom(p0, n).dim + hom(m, n).dim
    if value < 0:
        raise AssertionError(f"ext went negative: {value}")
    return value


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
    one = [[Fraction(1)]]
    m = Representation.from_dims(algebra, (1, 1, 1), {1: one, 3: one})
    n = Representation.from_dims(algebra, (1, 1, 1), {2: one, 3: one})
    return m, n


def counterexample_report() -> dict:
    """Compute and check every claim of the rigidity counterexample.

    Two modules over the ten dimensional algebra share the dimension vector
    (1, 1, 1), are both rigid, yet are not isomorphic. Their common lift to
    the ambient triangulated category is the quasi-length-two tube module of
    the acyclic affine triangle, whose self-extension there is

        ext(lift, lift) + ext(lift, lift) = 2,

    so the lift is not rigid and uniqueness results do not apply to it.
    """
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    proj_dims = {i: projective(alg, i).dims for i in (1, 2, 3)}
    omega_m, _ = syzygy(m)
    omega_n, _ = syzygy(n)
    report = {
        "algebra_dimension": alg.dimension,
        "projective_dims": {str(i): list(proj_dims[i]) for i in (1, 2, 3)},
        "dims_M": list(m.dims),
        "dims_N": list(n.dims),
        "same_dimension_vector": m.dims == n.dims,
        "ext1_M_M": ext1_bqa(m, m),
        "ext1_N_N": ext1_bqa(n, n),
        "hom_M_N": hom(m, n).dim,
        "hom_N_M": hom(n, m).dim,
        "isomorphic": is_isomorphic(m, n),
        "syzygy_M_dims": list(omega_m.dims),
        "syzygy_N_dims": list(omega_n.dims),
    }
    _, _, tube = atilde21_tube_modules()
    report["lift_self_extension"] = ext1_dim(tube, tube) + ext1_dim(tube, tube)
    if not report["same_dimension_vector"]:
        raise AssertionError("the two modules must share a dimension vector")
    if report["ext1_M_M"] or report["ext1_N_N"]:
        raise AssertionError("both modules must be rigid")
    if report["isomorphic"]:
        raise AssertionError("the two modules must not be isomorphic")
    if report["lift_self_extension"] == 0:
        raise AssertionError("the lift must fail to be rigid")
    return report
