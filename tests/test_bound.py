import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercat import linalg
from clustercat.bound import (
    _top_lifts,
    build_counterexample_algebra,
    counterexample_modules,
    counterexample_report,
    ext1_bqa,
    projective,
    projective_cover,
    syzygy,
)
from clustercat.quivers import Quiver, builtin_quiver, exchange_matrix
from clustercat.reps import (
    MonomialAlgebra,
    Representation,
    all_indecomposables,
    direct_sum,
    ext1_dim,
    hom,
    is_isomorphic,
)


def test_counterexample_report_frozen():
    rep = counterexample_report()
    assert rep["algebra_dimension"] == 10
    assert rep["projective_dims"] == {"1": [1, 1, 2], "2": [1, 2, 1], "3": [0, 1, 1]}
    assert rep["dims_M"] == [1, 1, 1] and rep["dims_N"] == [1, 1, 1]
    assert rep["same_dimension_vector"] is True
    assert rep["ext1_M_M"] == 0 and rep["ext1_N_N"] == 0
    assert rep["hom_M_N"] == 1 and rep["hom_N_M"] == 1
    assert rep["isomorphic"] is False
    assert rep["syzygy_M_dims"] == [0, 0, 1]
    assert rep["syzygy_N_dims"] == [0, 1, 0]
    assert rep["lift_self_extension"] == 2


def test_relations_kill_paths():
    alg = build_counterexample_algebra()
    # relation paths act by zero on every projective
    for i in (1, 2, 3):
        p = projective(alg, i)
        for rel in alg.relations:
            start = alg.quiver.arrows[rel[0]][0]
            act = p.path_action(start, rel)
            assert all(x == 0 for row in act for x in row)


def test_projectives_have_zero_syzygy_and_ext():
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    for i in (1, 2, 3):
        p = projective(alg, i)
        # End(P_i) = e_i B e_i; the surviving cycle through c gives dim 2 at i=2
        assert hom(p, p).dim == p.dims[i - 1]
        omega, _ = syzygy(p)
        assert omega.total_dim == 0
        for x in (m, n, p):
            assert ext1_bqa(p, x) == 0


def test_hom_from_projective_counts_dimension():
    alg = build_counterexample_algebra()
    rng = random.Random(3)
    m, n = counterexample_modules(alg)
    mods = [m, n, direct_sum(m, n)] + [projective(alg, i) for i in (1, 2, 3)]
    for x in mods:
        for i in (1, 2, 3):
            assert hom(projective(alg, i), x).dim == x.dims[i - 1]
    # also on a randomly scaled copy of M
    scale = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
    scaled = Representation.from_dims(
        alg, (1, 1, 1), {1: [[scale]], 3: [[Fraction(2)]]}
    )
    for i in (1, 2, 3):
        assert hom(projective(alg, i), scaled).dim == scaled.dims[i - 1]


def test_cover_dimension_bookkeeping():
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    for x in (m, n, direct_sum(m, n)):
        p0, cover = projective_cover(x)
        omega, p0b = syzygy(x)
        assert p0b.dims == p0.dims
        assert omega.total_dim == p0.total_dim - x.total_dim
        # cover surjects vertexwise
        for v in range(3):
            rows = [list(r) for r in cover[v]]
            assert linalg.rank(rows) == x.dims[v]


def greedy_top_lifts(m):
    """Per vertex, the standard basis vectors e_k that raise the rank of the
    radical plus the ones taken before them: the rank-per-vector loop that
    _top_lifts replaced."""
    q = m.algebra.quiver
    lifts = []
    for v in range(1, q.n + 1):
        dv = m.dims[v - 1]
        spanning = []
        for idx, (s, t) in enumerate(q.arrows):
            if t == v:
                spanning.extend(linalg.transpose(m.mat(idx), m.dims[s - 1]))
        rank = linalg.rank(spanning)
        chosen = []
        for k in range(dv):
            e = [Fraction(int(r == k)) for r in range(dv)]
            if linalg.rank(spanning + [e]) > rank:
                chosen.append(e)
                spanning = spanning + [e]
                rank += 1
        lifts.append(chosen)
    return lifts


LIFT_QUIVERS = [
    builtin_quiver("D4"),
    builtin_quiver("Atilde21"),
    build_counterexample_algebra().quiver,
]


@st.composite
def path_algebra_modules(draw):
    q = draw(st.sampled_from(LIFT_QUIVERS))
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=q.n, max_size=q.n)))
    entries = st.integers(-2, 2)
    mats = [
        [draw(st.lists(entries, min_size=dims[s - 1], max_size=dims[s - 1])) for _ in range(dims[t - 1])]
        for s, t in q.arrows
    ]
    return Representation(q, dims, mats)


@settings(max_examples=60, deadline=None)
@given(path_algebra_modules())
def test_top_lifts_match_the_greedy_rank_loop(m):
    assert _top_lifts(m) == greedy_top_lifts(m)


def test_top_lifts_match_the_greedy_rank_loop_on_the_counterexample():
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    for x in (m, n, direct_sum(m, n), *(projective(alg, i) for i in (1, 2, 3))):
        assert _top_lifts(x) == greedy_top_lifts(x)
        assert _top_lifts(syzygy(x)[0]) == greedy_top_lifts(syzygy(x)[0])


def test_ext_invariant_under_base_change():
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    m_conj = Representation.from_dims(
        alg, (1, 1, 1), {1: [[Fraction(7, 2)]], 3: [[Fraction(-3)]]}
    )
    assert is_isomorphic(m_conj, m)
    assert ext1_bqa(m_conj, m_conj) == 0
    assert hom(m_conj, n).dim == hom(m, n).dim


def test_modules_not_isomorphic_despite_equal_dims():
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    assert m.dims == n.dims == (1, 1, 1)
    assert not is_isomorphic(m, n)
    assert is_isomorphic(m, m)


def test_isomorphism_on_a_one_dimensional_hom_space_reads_only_its_basis(monkeypatch):
    # Hom(M, N) is spanned by one map, so whether it is invertible at every
    # vertex settles the question: at most one rank per vertex
    m, n = counterexample_modules(build_counterexample_algebra())
    assert hom(m, n).dim == 1
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a: calls.append(a) or rank(a))
    assert not is_isomorphic(m, n)
    assert len(calls) <= 3


def test_module_rejects_relation_violation():
    alg = build_counterexample_algebra()
    one = [[Fraction(1)]]
    # turning on arrows a: 1->3 and b: 3->2 makes the path ab act nonzero
    with pytest.raises(ValueError):
        Representation.from_dims(alg, (1, 1, 1), {0: one, 1: one})


def test_plain_path_algebra_reduces_to_hereditary_behaviour():
    alg = MonomialAlgebra(Quiver(2, ((1, 2),)), ())
    s1 = Representation.simple(alg, 1)
    s2 = Representation.simple(alg, 2)
    assert ext1_bqa(s1, s2) == 1
    assert ext1_bqa(s2, s1) == 0
    omega, p0 = syzygy(s1)
    assert omega.dims == (0, 1) and p0.dims == (1, 1)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_presentation_ext_matches_euler_form(name):
    # two independent Ext routes over a path algebra
    inds = all_indecomposables(builtin_quiver(name))
    for m in inds:
        for n in inds:
            assert ext1_bqa(m, n) == ext1_dim(m, n)


def test_modules_over_one_quiver_share_its_path_algebra():
    q = Quiver(2, ((1, 2),))
    s1, s2 = Representation.simple(q, 1), Representation.simple(q, 2)
    assert s1.algebra is s2.algebra
    assert s1.algebra == MonomialAlgebra(q, ())
    assert s1.quiver == q


def test_two_cycle_algebra_needs_the_presentation_route():
    # 1 -> 2 -> 1 with both paths of length two killed
    alg = MonomialAlgebra(Quiver(2, ((1, 2), (2, 1))), ((0, 1), (1, 0)))
    assert alg.dimension == 4
    s1, s2 = Representation.simple(alg, 1), Representation.simple(alg, 2)
    assert ext1_bqa(s1, s2) == 1 and ext1_bqa(s2, s1) == 1
    assert ext1_bqa(s1, s1) == 0
    with pytest.raises(ValueError):
        ext1_dim(s1, s2)
    with pytest.raises(ValueError):
        hom(s1, Representation.simple(alg.quiver, 2))
    with pytest.raises(ValueError):
        exchange_matrix(alg.quiver)
