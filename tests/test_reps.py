import itertools
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import solve_matrix

from clustercat import linalg, reps
from clustercat.quivers import EulerData, Quiver, builtin_quiver, euler_data, positive_roots
from clustercat.reps import (
    HomSpace,
    Representation,
    atilde21_tube_modules,
    ext1_dim,
    hom,
    indecomposable_from_root,
    projective_dims,
)

A2 = builtin_quiver("A2")
A3 = builtin_quiver("A3")


def M(q, dims, entries=None):
    return Representation.from_dims(q, dims, entries)


# test oracles, which the other test modules import too


def all_indecomposables(q: Quiver) -> list[Representation]:
    """All indecomposables of a Dynkin quiver, sorted by dimension vector."""
    return [indecomposable_from_root(q, d) for d in sorted(positive_roots(q))]


def injective_dims(q: Quiver, i: int) -> tuple[int, ...]:
    """Dimension vector of the indecomposable injective at vertex i: the
    number of paths from each vertex to i."""
    return tuple(projective_dims(q, j)[i - 1] for j in range(1, q.n + 1))


def direct_sum(m: Representation, *more: Representation) -> Representation:
    """Block-diagonal sum of one or more modules over a common algebra,
    in argument order."""
    parts = (m,) + more
    if any(p.algebra != m.algebra for p in more):
        raise ValueError("direct sum needs a common algebra")
    dims = tuple(map(sum, zip(*(p.dims for p in parts))))
    mats = []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        block = linalg.zeros(dims[t - 1], dims[s - 1])
        ro = co = 0
        for p in parts:
            for r, row in enumerate(p.mats[idx]):
                block[ro + r][co:co + len(row)] = row
            ro, co = ro + p.dims[t - 1], co + p.dims[s - 1]
        mats.append(block)
    return Representation(m.algebra, dims, mats)


def tau(m: Representation) -> Representation | None:
    """AR translate of an indecomposable; None for projectives."""
    q = m.quiver
    if m.dims not in positive_roots(q):
        raise ValueError("tau is defined here for indecomposables (root dims) only")
    if any(m.dims == projective_dims(q, i) for i in range(1, q.n + 1)):
        return None
    shifted = euler_data(q).coxeter_transform(m.dims)
    if shifted not in positive_roots(q):
        raise AssertionError(f"Coxeter image {shifted} of non-projective is not a root")
    return indecomposable_from_root(q, shifted)


def tau_inverse(m: Representation) -> Representation | None:
    """Inverse AR translate of an indecomposable; None for injectives."""
    q = m.quiver
    if m.dims not in positive_roots(q):
        raise ValueError("tau inverse is defined here for indecomposables only")
    if any(m.dims == injective_dims(q, i) for i in range(1, q.n + 1)):
        return None
    shifted = euler_data(q).inverse_coxeter_transform(m.dims)
    if shifted not in positive_roots(q):
        raise AssertionError(f"inverse Coxeter image {shifted} is not a root")
    return indecomposable_from_root(q, shifted)


class PreinjectivityIndeterminate(RuntimeError):
    """Raised when the translate orbit neither exits nor cycles within the cap."""


_PREINJECTIVE_STEPS = 64


def is_preinjective(ed: EulerData, d) -> bool:
    """Whether iterating the inverse translate drives d out of the orthant.

    Detects periodic orbits (returns False); raises
    PreinjectivityIndeterminate when the cap is hit with no decision.
    """
    cur = tuple(int(x) for x in d)
    seen = {cur}
    for _ in range(_PREINJECTIVE_STEPS):
        cur = ed.inverse_coxeter_transform(cur)
        if any(x < 0 for x in cur):
            return True
        if cur in seen:
            return False
        seen.add(cur)
    raise PreinjectivityIndeterminate(f"orbit of {tuple(d)} undecided after {_PREINJECTIVE_STEPS} steps")


def invertible_element_exists(dims, space: HomSpace) -> bool:
    """Whether some element of a hom space is invertible at every vertex.

    Exact and finite. At a vertex v with d = dims[v] > 0, keep the m nonzero
    components B_1..B_m of the basis at v; the answer is True iff at every
    such vertex sum_t c_t B_t has rank d at some c in N^m with sum c = d.
    Assumes square components. Proof:

    * P_v(c) = det(sum_t c_t B_t) is zero or homogeneous of degree d.
    * A nonzero polynomial P of degree <= d in m variables is nonzero at some
      c in N^m with sum c <= d. By induction on m: write P as a polynomial
      in c_m of degree e; its top coefficient has degree <= d - e in the
      other variables and is nonzero at some a with sum a <= d - e, so
      P(a, c_m) is a nonzero one-variable polynomial of degree e, nonzero at
      one of c_m = 0..e.
    * For nonzero homogeneous P of degree d, Q(a) = P(a, d - sum a) on
      N^(m-1) is nonzero too: P(sc) = s^d P(c), so a P vanishing on the
      hyperplane sum c = d would vanish wherever sum c != 0. Q has degree
      <= d, so some a with sum a <= d has Q(a) != 0, and c = (a, d - sum a)
      lies in N^m with sum c = d exactly.
    * If every P_v is nonzero so is their product, which has a rational
      non-root: an element invertible at every vertex. If some P_v is zero,
      no element is invertible at v.

    A vertex whose components all vanish has no such point, a basis element
    is a point d*e_t, and a one-dimensional space has the single point (d).
    """
    for v, dv in enumerate(dims):
        comps = [b[v] for b in space.basis if any(map(any, b[v]))]
        # each multiset of d components is one point c of the lattice
        if dv and not any(
            linalg.rank([[sum(xs) for xs in zip(*rows)] for rows in zip(*picks)]) == dv
            for picks in combinations_with_replacement(comps, dv)
        ):
            return False
    return True


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test: equal dimension vectors plus a hom element
    that is invertible at every vertex."""
    if m.algebra != n.algebra:
        raise ValueError("isomorphism test needs a common algebra")
    if m.dims != n.dims:
        return False
    if sum(m.dims) == 0:
        return True
    return invertible_element_exists(m.dims, hom(m, n))


def test_hom_simples_orthogonal():
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    assert hom(s1, s1).dim == 1
    assert hom(s2, s2).dim == 1
    assert hom(s1, s2).dim == 0
    assert hom(s2, s1).dim == 0


def test_hom_projective_counts_dimension():
    p1 = M(A2, (1, 1), {0: [[1]]})
    s1 = Representation.simple(A2, 1)
    assert hom(p1, s1).dim == 1
    assert hom(s1, p1).dim == 0
    # Hom(P_i, X) = dim X_i in general
    for x in all_indecomposables(A3):
        for i in (1, 2, 3):
            p = M(A3, projective_dims(A3, i), _proj_entries(A3, i))
            assert hom(p, x).dim == x.dims[i - 1]


def _proj_entries(q, i):
    # identity-path entries for the linear A3 projectives
    dims = projective_dims(q, i)
    entries = {}
    for idx, (s, t) in enumerate(q.arrows):
        if dims[s - 1] and dims[t - 1]:
            entries[idx] = [[1]]
    return entries


def test_ext_examples():
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s2, s1) == 0
    p1 = M(A2, (1, 1), {0: [[1]]})
    for x in (s1, s2, p1):
        assert ext1_dim(p1, x) == 0


def test_ext_matches_euler_deficit():
    ed = euler_data(A3)
    for m in all_indecomposables(A3):
        for n in all_indecomposables(A3):
            assert (
                hom(m, n).dim - ext1_dim(m, n) == ed.euler_form(m.dims, n.dims)
            )


def test_projective_and_injective_dims():
    assert [projective_dims(A3, i) for i in (1, 2, 3)] == [
        (1, 1, 1),
        (0, 1, 1),
        (0, 0, 1),
    ]
    assert [injective_dims(A3, i) for i in (1, 2, 3)] == [
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    ]
    d4 = builtin_quiver("D4")
    assert projective_dims(d4, 2) == (0, 1, 1, 1)
    assert injective_dims(d4, 2) == (1, 1, 0, 0)


def test_indecomposables_exhaust_positive_roots():
    for q in (A3, builtin_quiver("D4")):
        inds = all_indecomposables(q)
        assert {m.dims for m in inds} == set(positive_roots(q))
        for m in inds:
            assert hom(m, m).dim == 1
            assert ext1_dim(m, m) == 0
        for m, n in itertools.combinations(inds, 2):
            assert not is_isomorphic(m, n)


def test_indecomposable_from_root_rejects_non_root():
    with pytest.raises(ValueError):
        indecomposable_from_root(A3, (2, 0, 0))
    # P_1 of the affine triangle is (1, 1, 2) with two paths 1 -> 3, which
    # the orbit walk's unit-map projectives would get wrong: the error comes
    # before the cache is touched
    atilde = builtin_quiver("Atilde21")
    assert projective_dims(atilde, 1) == (1, 1, 2)
    misses = reps._indecomposables.cache_info().misses
    with pytest.raises(ValueError):
        indecomposable_from_root(atilde, (1, 1, 2))
    assert reps._indecomposables.cache_info().misses == misses
    assert indecomposable_from_root(A3, (1, 1, 0)) is indecomposable_from_root(A3, (1, 1, 0))


def test_indecomposables_are_built_once_per_quiver(monkeypatch):
    # one walk of the tau^-1-orbits: C^- (n reflections) once per
    # non-injective indecomposable, then lookups only
    e6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
    calls = []
    reflect = reps._coreflection
    monkeypatch.setattr(reps, "_coreflection", lambda *a: calls.append(1) or reflect(*a))
    reps._indecomposables.cache_clear()
    for d in positive_roots(e6):
        assert indecomposable_from_root(e6, d).dims == d
    assert len(calls) == (36 - 6) * 6 == 180
    for d in positive_roots(e6):
        indecomposable_from_root(e6, d)
    assert len(calls) == 180


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_a_coxeter_functor_skipping_a_vertex_leaves_the_orbit(monkeypatch, name):
    # C^- without its last reflection: the arrows at that vertex turn round
    # with their maps transposed, and its space stays as it was
    q = builtin_quiver(name)
    skip = q.topological_order()[-1]
    reflect = reps._coreflection

    def skipping(m, k, target):
        if k != skip:
            return reflect(m, k, target)
        arrows = m.quiver.arrows
        mats = [[list(c) for c in zip(*a)] if k in arrow else a for arrow, a in zip(arrows, m.mats)]
        return Representation._of(target, m.dims, mats)

    monkeypatch.setattr(reps, "_coreflection", skipping)
    reps._indecomposables.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"C\^- steps off the orbit: \(.*\) where the row has"):
            reps._indecomposables(q)
    finally:
        reps._indecomposables.cache_clear()


def test_tau_orbit_a2():
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    p1 = M(A2, (1, 1), {0: [[1]]})
    assert tau(p1) is None
    assert tau(s2) is None  # S2 = P2 on 1->2
    t = tau(s1)
    assert t is not None and t.dims == (0, 1)
    assert tau_inverse(s1) is None  # S1 = I1
    back = tau_inverse(t)
    assert back is not None and back.dims == (1, 0)


def test_tau_iteration_reaches_projectives():
    # every indecomposable over a Dynkin quiver is preprojective
    for q in (A3, builtin_quiver("D4")):
        projs = {projective_dims(q, i) for i in range(1, q.n + 1)}
        for m in all_indecomposables(q):
            cur, steps = m, 0
            while tau(cur) is not None:
                cur = tau(cur)
                steps += 1
                assert steps <= len(all_indecomposables(q))
            assert cur.dims in projs


def test_tau_tau_inverse_roundtrip():
    for m in all_indecomposables(A3):
        t = tau(m)
        if t is not None:
            assert is_isomorphic(tau_inverse(t), m)


def test_preinjectivity():
    # every root of a Dynkin quiver is preinjective
    for q in (A3, builtin_quiver("D4"), Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))):
        ed = euler_data(q)
        for d in positive_roots(q):
            assert is_preinjective(ed, d)
    qa = builtin_quiver("Atilde21")
    eda = euler_data(qa)
    assert not is_preinjective(eda, (1, 1, 1))
    assert is_preinjective(eda, injective_dims(qa, 1))


def test_is_isomorphic_examples():
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    p1 = M(A2, (1, 1), {0: [[1]]})
    assert is_isomorphic(p1, p1)
    assert not is_isomorphic(direct_sum(s1, s2), p1)
    scaled = M(A2, (1, 1), {0: [[Fraction(5, 3)]]})
    assert is_isomorphic(scaled, p1)


def test_is_isomorphic_on_hom_spaces_of_dimension_two_and_more():
    # a basis element need not be an isomorphism here: the answers come from
    # the lattice points that combine basis elements
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    p1 = M(A2, (1, 1), {0: [[1]]})
    twisted = M(A2, (2, 2), {0: [[1, 1], [0, 1]]})
    cases = [
        (direct_sum(p1, s2), direct_sum(s2, p1), 3, True),
        (direct_sum(p1, p1), twisted, 4, True),
        (direct_sum(s1, s2, s2), direct_sum(p1, s2), 4, False),
        (direct_sum(s1, s1, s2, s2), direct_sum(p1, p1), 4, False),
    ]
    for m, n, dim, iso in cases:
        assert hom(m, n).dim == dim
        assert is_isomorphic(m, n) is iso
    # every map from S1^3 + S2^3 to P1^3 vanishes at vertex 1, which decides
    # the answer however large the hom space is
    m, n = direct_sum(*[s1] * 3, *[s2] * 3), direct_sum(p1, p1, p1)
    assert hom(m, n).dim == 9
    assert is_isomorphic(m, n) is False
    # no vertex vanishes outright here, only S1's summand maps to zero; the
    # lattice at vertex 1 holds no invertible point
    m = direct_sum(p1, p1, s1, s2)
    assert hom(m, n).dim == 9
    assert is_isomorphic(m, n) is False


def test_isomorphism_ranks_one_lattice_point_at_a_time(monkeypatch):
    # at most C(m_v + d_v - 1, d_v) ranks at vertex v, one per point c of
    # N^(m_v) with sum c = d_v; none where every component vanishes
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    p1 = M(A2, (1, 1), {0: [[1]]})
    twisted = M(A2, (2, 2), {0: [[1, 1], [0, 1]]})
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a: calls.append(a) or rank(a))
    vanishing = [
        (direct_sum(s1, s2, s2), direct_sum(p1, s2)),
        (direct_sum(s1, s1, s2, s2), direct_sum(p1, p1)),
        (direct_sum(*[s1] * 3, *[s2] * 3), direct_sum(p1, p1, p1)),
    ]
    for m, n in vanishing:
        calls.clear()
        assert invertible_element_exists(m.dims, hom(m, n)) is False
        assert calls == []
    cases = [
        (p1, M(A2, (1, 1), {0: [[Fraction(5, 3)]]}), True),
        (direct_sum(s1, s2), p1, False),
        (direct_sum(p1, s2), direct_sum(s2, p1), True),
        (direct_sum(p1, p1), twisted, True),
        (direct_sum(p1, p1, s1, s2), direct_sum(p1, p1, p1), False),
    ]
    for m, n, iso in cases:
        space = hom(m, n)
        calls.clear()
        assert invertible_element_exists(m.dims, space) is iso
        points = []
        for v, d in enumerate(m.dims):
            nonzero = sum(any(map(any, b[v])) for b in space.basis)
            points.append(1 if space.dim == 1 else math.comb(nonzero + d - 1, d))
        assert len(calls) <= sum(points)
    # the False answer above ranks every point of the failing vertex
    assert len(calls) == 56


def _conjugate(m, rng):
    """m with each arrow matrix base-changed by random invertible integer
    matrices at its ends: a module isomorphic to m."""
    gs = []
    for d in m.dims:
        g = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        while linalg.rank(g) != d:
            g = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        gs.append(g)
    inverses = [solve_matrix(g, linalg.identity(d), d) for g, d in zip(gs, m.dims)]
    mats = [
        linalg.mat_mul(linalg.mat_mul(gs[t - 1], m.mats[i], m.dims[s - 1]), inverses[s - 1], m.dims[s - 1])
        for i, (s, t) in enumerate(m.quiver.arrows)
    ]
    return Representation(m.algebra, m.dims, mats)


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_is_isomorphic_agrees_with_krull_schmidt(name):
    # over a Dynkin quiver an indecomposable is fixed by its dimension
    # vector, so two sums are isomorphic iff their summands' dimension
    # vectors agree as multisets; sums of equal dimension vector are paired
    q = builtin_quiver(name)
    inds = all_indecomposables(q)
    by_dims = {}
    for parts in itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(len(inds)), k) for k in (1, 2, 3)
    ):
        total = tuple(map(sum, zip(*(inds[i].dims for i in parts))))
        by_dims.setdefault(total, []).append(parts)
    rng = random.Random(f"krull-schmidt {name}")
    answers = set()
    for _ in range(62):
        group = rng.choice(list(by_dims.values()))
        left, right = rng.choice(group), rng.choice(group)
        m = direct_sum(*(inds[i] for i in rng.sample(left, len(left))))
        n = _conjugate(direct_sum(*(inds[i] for i in rng.sample(right, len(right)))), rng)
        assert is_isomorphic(m, n) is (left == right)
        answers.add(left == right)
    assert answers == {True, False}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=1, max_size=4)
    )
)
def test_lattice_lemma_on_products_of_linear_forms(forms):
    # P = prod_i sum_t forms[i][t] c_t has degree d in m variables; the
    # points of N^m with sum d are the multisets of d variables
    m, d = len(forms[0]), len(forms)
    points = list(itertools.combinations_with_replacement(range(m), d))
    assert len(points) == math.comb(m + d - 1, d)
    nonzero = all(map(any, forms))
    assert any(math.prod(sum(f[t] for t in c) for f in forms) for c in points) is nonzero
    # P is the determinant of sum_t c_t diag(forms[0][t], ..., forms[d-1][t])
    basis = [
        ([[Fraction(f[t]) if i == j else Fraction(0) for j, f in enumerate(forms)] for i in range(d)],)
        for t in range(m)
    ]
    assert invertible_element_exists((d,), HomSpace(m, basis)) is nonzero


def test_hom_additive_over_direct_sums():
    inds = all_indecomposables(A3)
    for m, n, w in itertools.islice(itertools.permutations(inds, 3), 40):
        assert hom(direct_sum(m, n), w).dim == hom(m, w).dim + hom(n, w).dim
        assert hom(w, direct_sum(m, n)).dim == hom(w, m).dim + hom(w, n).dim
        assert (
            ext1_dim(direct_sum(m, n), w) == ext1_dim(m, w) + ext1_dim(n, w)
        )


def test_direct_sum_of_many_is_the_fold_of_pairs():
    inds = all_indecomposables(A3)
    for parts in itertools.islice(itertools.permutations(inds, 3), 20):
        many, pairs = direct_sum(*parts), direct_sum(direct_sum(*parts[:2]), parts[2])
        assert (many.dims, many.mats) == (pairs.dims, pairs.mats)
    assert direct_sum(inds[0]).mats == inds[0].mats
    with pytest.raises(ValueError, match="common algebra"):
        direct_sum(inds[0], inds[1], Representation.simple(A2, 1))


def test_ext_vanishing_against_projectives_and_injectives():
    inds = all_indecomposables(A3)
    for i in (1, 2, 3):
        p = indecomposable_from_root(A3, projective_dims(A3, i))
        inj = indecomposable_from_root(A3, injective_dims(A3, i))
        for x in inds:
            assert ext1_dim(p, x) == 0
            assert ext1_dim(x, inj) == 0


def test_tube_modules():
    r1, r2, mt = atilde21_tube_modules()
    assert r1.dims == (0, 1, 0)
    assert r2.dims == (1, 0, 1)
    assert mt.dims == (1, 1, 1)
    assert ext1_dim(r1, r1) == 0 and ext1_dim(r2, r2) == 0
    assert ext1_dim(mt, mt) == 1
    assert ext1_dim(r1, r2) == 1 and ext1_dim(r2, r1) == 1


reps_strategy = st.lists(st.sampled_from(range(6)), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(reps_strategy, reps_strategy)
def test_ext_nonnegative_on_sums(ixs, jxs):
    inds = all_indecomposables(A3)
    m = inds[ixs[0]]
    for i in ixs[1:]:
        m = direct_sum(m, inds[i])
    n = inds[jxs[0]]
    for j in jxs[1:]:
        n = direct_sum(n, inds[j])
    ed = euler_data(A3)
    e = ext1_dim(m, n)
    assert e >= 0
    assert hom(m, n).dim - e == ed.euler_form(m.dims, n.dims)
