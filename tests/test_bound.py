import random
from fractions import Fraction

import pytest
from test_linalg import solve_matrix
from test_reps import all_indecomposables, direct_sum, is_isomorphic

from clustercat import linalg
from clustercat.bound import (
    _syzygy_dims,
    _top_dims,
    build_counterexample_algebra,
    counterexample_modules,
    counterexample_report,
)
from clustercat.quivers import Quiver, builtin_quiver, euler_data, exchange_matrix
from clustercat.reps import (
    MonomialAlgebra,
    Representation,
    ext1_dim,
    hom,
    projective_dims,
)

# ---------------------------------------------------------------------------
# the presentation route, an independent oracle for reps.ext1_dim: applying
# Hom(-, N) to 0 -> Omega M -> P0 -> M -> 0 over any algebra gives
#
#     dim Ext^1(M, N) = dim Hom(Omega M, N) - dim Hom(P0, N) + dim Hom(M, N)


def basis_from(algebra: MonomialAlgebra, start: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Basis paths starting at ``start`` grouped by end vertex (0-based tuple
    index), each group sorted by length then lexicographically."""
    groups = [[] for _ in range(algebra.quiver.n)]
    for s, p in algebra.paths:
        if s == start:
            groups[algebra.path_end(s, p) - 1].append(p)
    return tuple(tuple(sorted(g, key=lambda p: (len(p), p))) for g in groups)


def projective(algebra: MonomialAlgebra, i: int) -> Representation:
    """Indecomposable projective at vertex i, with path basis; an arrow acts
    by appending itself when the longer path survives the relations."""
    q = algebra.quiver
    basis = basis_from(algebra, i)
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


def apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def top_lifts(m):
    """Per vertex, the standard basis vectors e_k that raise the rank of the
    radical (the arrow images into the vertex) plus the ones taken before
    them: they span a complement of the radical."""
    q = m.algebra.quiver
    lifts = []
    for v in range(1, q.n + 1):
        dv = m.dims[v - 1]
        spanning = []
        for idx, (s, t) in enumerate(q.arrows):
            if t == v:
                spanning.extend(linalg.transpose(m.mats[idx], m.dims[s - 1]))
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


def projective_cover(m):
    """Minimal projective cover P0 -> M: P0 and the vertexwise matrices of
    the covering map, checked surjective, blocks in direct_sum order."""
    alg = m.algebra
    q = alg.quiver
    blocks = [(v, vec) for v, lifts in enumerate(top_lifts(m), 1) for vec in lifts]
    zero = Representation.from_dims(alg, (0,) * q.n)
    p0 = direct_sum(zero, *(projective(alg, v) for v, _ in blocks))
    cover = []
    for j in range(1, q.n + 1):
        cols = [apply(m.path_action(v, p), vec) for v, vec in blocks for p in basis_from(alg, v)[j - 1]]
        mat_j = linalg.transpose(cols, m.dims[j - 1])
        linalg.shape_of(mat_j, m.dims[j - 1], p0.dims[j - 1])
        assert linalg.rank(mat_j) == m.dims[j - 1], "cover map is not surjective"
        cover.append(mat_j)
    return p0, cover


def syzygy(m):
    """Kernel of the projective cover, as a module; returns (Omega M, P0)."""
    q = m.algebra.quiver
    p0, cover = projective_cover(m)
    kernels = [linalg.nullspace(cover[v], p0.dims[v]) for v in range(q.n)]
    mats = []
    for idx, (s, t) in enumerate(q.arrows):
        src, dst = kernels[s - 1], kernels[t - 1]
        images = linalg.transpose([apply(p0.mats[idx], vec) for vec in src], p0.dims[t - 1])
        coords = solve_matrix(linalg.transpose(dst, p0.dims[t - 1]), images, len(dst))
        assert coords is not None, "kernel is not arrow-stable"
        mats.append(coords)
    return Representation(m.algebra, tuple(map(len, kernels)), mats), p0


def ext1_presentation(m, n, presentation=None):
    omega, p0 = presentation or syzygy(m)
    return hom(omega, n).dim - hom(p0, n).dim + hom(m, n).dim


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
        assert sum(omega.dims) == 0
        for x in (m, n, p):
            assert ext1_dim(p, x) == 0


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
    # top M = S1 and top N = S2, which proves them non-isomorphic
    assert (_top_dims(m), _top_dims(n)) == ([1, 0, 0], [0, 1, 0])
    for x in (m, n, direct_sum(m, n)):
        p0, cover = projective_cover(x)
        omega, p0b = syzygy(x)
        assert p0b.dims == p0.dims
        assert sum(omega.dims) == sum(p0.dims) - sum(x.dims)
        # the report reads the same dimensions off the top of x alone
        assert list(omega.dims) == _syzygy_dims(x)
        # cover surjects vertexwise
        for v in range(3):
            rows = [list(r) for r in cover[v]]
            assert linalg.rank(rows) == x.dims[v]


def test_ext_invariant_under_base_change():
    alg = build_counterexample_algebra()
    m, n = counterexample_modules(alg)
    m_conj = Representation.from_dims(
        alg, (1, 1, 1), {1: [[Fraction(7, 2)]], 3: [[Fraction(-3)]]}
    )
    # the rescaled arrow keeps its true Fraction, the integral one is an int
    assert [type(m_conj.mats[a][0][0]) for a in (1, 3)] == [Fraction, int]
    assert is_isomorphic(m_conj, m)
    assert ext1_dim(m_conj, m_conj) == 0
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
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s2, s1) == 0
    omega, p0 = syzygy(s1)
    assert omega.dims == (0, 1) and p0.dims == (1, 1)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_presentation_ext_matches_euler_form(name):
    # three Ext routes over a path algebra: the complex, the presentation
    # and the Euler form
    q = builtin_quiver(name)
    inds = all_indecomposables(q)
    for m in inds:
        presentation = syzygy(m)
        for n in inds:
            expected = hom(m, n).dim - euler_data(q).euler_form(m.dims, n.dims)
            assert ext1_dim(m, n) == ext1_presentation(m, n, presentation) == expected


def test_modules_over_one_quiver_share_its_path_algebra():
    q = Quiver(2, ((1, 2),))
    s1, s2 = Representation.simple(q, 1), Representation.simple(q, 2)
    assert s1.algebra is s2.algebra
    assert s1.algebra == MonomialAlgebra(q, ())
    assert s1.quiver == q


def test_two_cycle_algebra_ext_reads_its_relations():
    # 1 -> 2 -> 1 with both paths of length two killed
    alg = MonomialAlgebra(Quiver(2, ((1, 2), (2, 1))), ((0, 1), (1, 0)))
    assert alg.dimension == 4
    s1, s2 = Representation.simple(alg, 1), Representation.simple(alg, 2)
    assert ext1_dim(s1, s2) == 1 and ext1_dim(s2, s1) == 1
    assert ext1_dim(s1, s1) == 0
    with pytest.raises(ValueError):
        ext1_dim(s1, Representation.simple(alg.quiver, 2))
    with pytest.raises(ValueError):
        hom(s1, Representation.simple(alg.quiver, 2))
    with pytest.raises(ValueError):
        exchange_matrix(alg.quiver)


def test_paths_stop_exactly_when_the_algebra_is_finite():
    # finite however long its paths: A41's longest has 40 arrows
    assert projective_dims(Quiver(41, tuple((i, i + 1) for i in range(1, 41))), 1) == (1,) * 41
    # a cycle of three arrows with only ca = 0 keeps abc, longer than ca
    assert MonomialAlgebra(Quiver(3, ((1, 2), (2, 3), (3, 1))), ((2, 0),)).dimension == 9
    # a cycle with no relations, and ab = ba = 0, which leaves every power of cb
    for arrows, relations in ((((1, 2), (2, 1)), ()), (((1, 2), (2, 1), (1, 2)), ((0, 1), (1, 0)))):
        with pytest.raises(ValueError, match="do not bound the algebra"):
            projective_dims(MonomialAlgebra(Quiver(2, arrows), relations), 1)


def test_a_relation_kills_the_extension_it_forbids():
    # over 1 -> 2 -> 3 the only extension of S1 by P2 is P1, uniserial of
    # length three; the relation ab = 0 forbids it
    q = builtin_quiver("A3")
    bound = MonomialAlgebra(q, ((0, 1),))
    one = [[Fraction(1)]]
    for alg, expected in ((q, 1), (bound, 0)):
        s1 = Representation.simple(alg, 1)
        p2 = Representation.from_dims(alg, (0, 1, 1), {1: one})
        assert ext1_dim(s1, p2) == expected
        assert ext1_presentation(s1, p2) == expected


ORACLE_ALGEBRAS = {
    "counterexample": build_counterexample_algebra(),
    "two-cycle": MonomialAlgebra(Quiver(2, ((1, 2), (2, 1))), ((0, 1), (1, 0))),
    # relations that repeat an arrow: aba = bab = 0
    "long-two-cycle": MonomialAlgebra(Quiver(2, ((1, 2), (2, 1))), ((0, 1, 0), (1, 0, 1))),
    "three-cycle": MonomialAlgebra(
        Quiver(3, ((1, 2), (2, 3), (3, 1))), ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ),
    "overlapping": MonomialAlgebra(builtin_quiver("A4"), ((0, 1, 2), (1, 2))),
    # abc lies in the ideal that ab generates
    "redundant": MonomialAlgebra(builtin_quiver("A4"), ((0, 1), (0, 1, 2))),
    "path": MonomialAlgebra(builtin_quiver("Atilde21"), ()),
}


def rebased(m, rng):
    """m in a random basis: g_t M_a g_s^-1 with g_v = L U for a random
    unitriangular L and a random upper triangular U whose diagonal holds
    non-integral rationals, so invertible."""
    gs, invs = [], []
    for d in m.dims:
        low, up = linalg.identity(d), linalg.identity(d)
        for r in range(d):
            for c in range(r):
                low[r][c], up[c][r] = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
            up[r][r] = Fraction(rng.choice((-2, -1, 1, 2, 4)), rng.choice((3, 5)))
        gs.append(linalg.mat_mul(low, up, d))
        invs.append(solve_matrix(gs[-1], linalg.identity(d), d))
    # the base change holds a true Fraction, so the fraction path is exercised
    assert any(x.denominator > 1 for g in gs for row in g for x in row)
    mats = [
        linalg.mat_mul(linalg.mat_mul(gs[t - 1], m.mats[a], m.dims[s - 1]), invs[s - 1], m.dims[s - 1])
        for a, (s, t) in enumerate(m.quiver.arrows)
    ]
    return Representation(m.algebra, m.dims, mats)


def oracle_modules(alg, rng, count=6):
    """Projectives, in the path basis and in a random one, simples, ``count``
    random modules that satisfy the relations, and the nonzero syzygies of
    all of them."""
    q = alg.quiver
    mods = [projective(alg, v) for v in range(1, q.n + 1)]
    # the path counts the report reads are the dimensions of the projectives
    assert [p.dims for p in mods] == [projective_dims(alg, v) for v in range(1, q.n + 1)]
    mods += [rebased(p, rng) for p in mods]
    mods += [Representation.simple(alg, v) for v in range(1, q.n + 1)]
    while len(mods) < 3 * q.n + count:
        dims = [rng.randrange(3) for _ in range(q.n)]
        live = [rng.random() < 0.6 for _ in q.arrows]
        mats = [
            [[rng.choice((0, 0, 1, -1, 2)) if on else 0 for _ in range(dims[s - 1])] for _ in range(dims[t - 1])]
            for on, (s, t) in zip(live, q.arrows)
        ]
        try:
            mods.append(Representation(alg, dims, mats))
        except ValueError:
            continue
    return mods + [omega for omega, _ in map(syzygy, mods) if sum(omega.dims)]


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_ext1_dim_matches_the_presentation_oracle(name):
    alg = ORACLE_ALGEBRAS[name]
    mods = oracle_modules(alg, random.Random(f"ext-oracle-{name}"))
    for m in mods:
        presentation = syzygy(m)
        for n in mods:
            value = ext1_dim(m, n)
            assert value == ext1_presentation(m, n, presentation), (m, n)
            if not alg.relations:
                assert value == hom(m, n).dim - euler_data(alg.quiver).euler_form(m.dims, n.dims)
