import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercat import reps
from clustercat.quivers import builtin_quiver, positive_roots
from clustercat.reps import (
    Representation,
    all_indecomposables,
    atilde21_tube_modules,
    direct_sum,
    euler_data,
    ext1_dim,
    hom,
    indecomposable_from_root,
    injective_dims,
    is_isomorphic,
    is_preinjective,
    projective_dims,
    tau,
    tau_inverse,
)

A2 = builtin_quiver("A2")
A3 = builtin_quiver("A3")


def M(q, dims, entries=None):
    return Representation.from_dims(q, dims, entries)


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
    ed3 = euler_data(A3)
    for m in all_indecomposables(A3):
        assert is_preinjective(ed3, m.dims)
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
    # no single basis element is an isomorphism here, so the answers come
    # from the seeded random combinations (True) or the vertex determinants
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
    # past dimension 6 a failed random search is not decided symbolically:
    # here only S1's summand maps to zero, so no vertex vanishes outright
    m = direct_sum(p1, p1, s1, s2)
    assert hom(m, n).dim == 9
    with pytest.raises(RuntimeError):
        is_isomorphic(m, n)


def test_vanishing_vertex_skips_the_random_search(monkeypatch):
    s1 = Representation.simple(A2, 1)
    s2 = Representation.simple(A2, 2)
    p1 = M(A2, (1, 1), {0: [[1]]})
    calls = []
    real = reps._vertexwise_invertible
    monkeypatch.setattr(reps, "_vertexwise_invertible", lambda *a: calls.append(a) or real(*a))
    cases = [
        (direct_sum(s1, s2, s2), direct_sum(p1, s2)),
        (direct_sum(s1, s1, s2, s2), direct_sum(p1, p1)),
        (direct_sum(*[s1] * 3, *[s2] * 3), direct_sum(p1, p1, p1)),
    ]
    for m, n in cases:
        calls.clear()
        space = hom(m, n)
        assert reps.invertible_element_exists(m.dims, space) is False
        assert len(calls) <= space.dim


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
