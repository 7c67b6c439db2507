import hashlib
import json
from types import SimpleNamespace

import pytest
from test_bound import projective
from test_linalg import solve
from test_reps import all_indecomposables, direct_sum, injective_dims, is_preinjective

from clustercat import linalg, quivers, reps, tilting
from clustercat.category import GammaC, walk_tilting
from clustercat.quivers import Quiver, builtin_quiver, euler_data
from clustercat.reps import (
    MonomialAlgebra,
    Representation,
    ext1_dim,
    hom,
    indecomposable_from_root,
    projective_dims,
)
from clustercat.tilting import (
    DecomposableSummand,
    DescentStepError,
    NotTilting,
    TiltingModule,
    _cokernel,
    _directed_indecomposables,
    complement_and_sequence,
    enumerate_tilting_modules,
    find_descent_summand,
    prop8_descent,
    torsion_class,
)

A3 = builtin_quiver("A3")
A4 = builtin_quiver("A4")
D4 = builtin_quiver("D4")
A5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
A6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)))
D5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
D6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
E8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))


def rep(q, dims):
    return indecomposable_from_root(q, dims)


def projectives(q):
    return tuple(rep(q, projective_dims(q, i)) for i in range(1, q.n + 1))


def injectives(q):
    return tuple(rep(q, injective_dims(q, i)) for i in range(1, q.n + 1))


def module_summand_dims(q, rep):
    """Multiset of indecomposable summand dimension vectors of ``rep``, by
    hom solves: the oracle for the table-predicted descent swaps.

    hom dimensions out of the directed list are unitriangular in the summand
    multiplicities (bricks on the diagonal, zeros below), so back-substitution
    forces them.  The result is cross-checked against the dimension vector.
    """
    table = _directed_indecomposables(q)
    ordered, hh = table.ordered, table.hh
    nn = len(ordered)
    homs = [hom(x, rep).dim for x in ordered]
    mult = [0] * nn
    for i in reversed(range(nn)):
        val = homs[i] - sum(hh[i][j] * mult[j] for j in range(i + 1, nn))
        if val < 0:
            raise ValueError(f"negative multiplicity at {ordered[i].dims}")
        mult[i] = val
    out = [x.dims for x, m in zip(ordered, mult) for _ in range(m)]
    if tuple(sum(d[v] for d in out) for v in range(q.n)) != rep.dims:
        raise ValueError("summand multiplicities do not add up to the module")
    return tuple(sorted(out))


def test_enumeration_a3_frozen():
    found = {frozenset(t.dims) for t in enumerate_tilting_modules(A3)}
    assert found == {
        frozenset({(1, 1, 1), (0, 1, 1), (0, 0, 1)}),
        frozenset({(1, 1, 1), (0, 1, 1), (0, 1, 0)}),
        frozenset({(1, 1, 1), (0, 0, 1), (1, 0, 0)}),
        frozenset({(1, 1, 1), (0, 1, 0), (1, 1, 0)}),
        frozenset({(1, 1, 1), (1, 0, 0), (1, 1, 0)}),
    }
    # the projective-injective summand sits in every one of them
    assert all((1, 1, 1) in s for s in found)


def test_enumeration_counts_catalan():
    assert len(enumerate_tilting_modules(builtin_quiver("A2"))) == 2
    assert len(enumerate_tilting_modules(builtin_quiver("A4"))) == 14
    assert len(enumerate_tilting_modules(D4)) == 20


def test_d4_count_against_cluster_category():
    # module-only tilting objects of the category are the tilting modules
    g = GammaC(D4)
    module_only = [
        summands for summands, _, _ in walk_tilting(g)
        if all(g.vertices[x].is_module for x in summands)
    ]
    assert len(module_only) == 20


def test_validation_errors():
    p1, p2, p3 = projectives(A3)
    with pytest.raises(DecomposableSummand):
        TiltingModule.of(A3, (direct_sum(p2, p3), p1, p2))
    # ext1(I1, P2) = 1, so this triple is not rigid
    i1 = rep(A3, (1, 0, 0))
    with pytest.raises(NotTilting, match="ext"):
        TiltingModule.of(A3, (p1, p2, i1))
    with pytest.raises(NotTilting, match="repeated"):
        TiltingModule.of(A3, (p1, p2, p2))
    with pytest.raises(NotTilting, match="need 3 summands"):
        TiltingModule.of(A3, (p1, p2))


def test_module_decomposition():
    p1, p2, p3 = projectives(A3)
    s2 = rep(A3, (0, 1, 0))
    assert module_summand_dims(A3, direct_sum(p1, s2)) == ((0, 1, 0), (1, 1, 1))
    assert module_summand_dims(A3, direct_sum(p3, direct_sum(p3, p2))) == (
        (0, 0, 1),
        (0, 0, 1),
        (0, 1, 1),
    )
    assert module_summand_dims(A3, Representation.from_dims(A3, (0, 0, 0))) == ()
    # a non-split-looking presentation of P1 + S2: dims (1, 2, 1)
    m = Representation.from_dims(A3, (1, 2, 1), {0: [[1], [1]], 1: [[0, 1]]})
    assert module_summand_dims(A3, m) == ((0, 1, 0), (1, 1, 1))


def torsion_dims(q, mask):
    """Dimension vectors of the modules a torsion-class mask holds."""
    ordered = _directed_indecomposables(q).ordered
    return {m.dims for j, m in enumerate(ordered) if mask >> j & 1}


def test_torsion_classes_a3():
    t_a = TiltingModule.of(A3, projectives(A3))
    assert torsion_dims(A3, torsion_class(A3, t_a)) == {
        m.dims for m in all_indecomposables(A3)
    }
    t_da = TiltingModule.of(A3, injectives(A3))
    assert torsion_dims(A3, torsion_class(A3, t_da)) == {(1, 0, 0), (1, 1, 0), (1, 1, 1)}


def test_descent_summand_selection():
    t_a = TiltingModule.of(A3, projectives(A3))
    assert find_descent_summand(A3, t_a) == 2
    t_da = TiltingModule.of(A3, injectives(A3))
    assert find_descent_summand(A3, t_da) is None


def test_full_descent_chain_from_projectives():
    t = TiltingModule.of(A3, projectives(A3))
    report = prop8_descent(A3, t)
    assert report["diagram"] == "A3"
    assert report["step_count"] == 3
    assert report["torsion_sizes"] == [6, 5, 4, 3]
    assert report["terminal_injectives"] is True
    expected = [
        ((0, 0, 1), (0, 1, 1), (0, 1, 0)),
        ((0, 1, 1), (1, 2, 1), (1, 1, 0)),
        ((0, 1, 0), (1, 1, 0), (1, 0, 0)),
    ]
    for step, (t0, e, t0p) in zip(report["steps"], expected):
        assert tuple(step["dim_t0"]) == t0
        assert tuple(step["dim_e"]) == e
        assert tuple(step["dim_t0_prime"]) == t0p
        assert step["t0_prime_preinjective"] is True
        assert tuple(
            a + b for a, b in zip(step["dim_t0"], step["dim_t0_prime"])
        ) == tuple(step["dim_e"])


def test_single_step_witness():
    t = TiltingModule.of(A3, projectives(A3))
    t2, e = complement_and_sequence(A3, t, 2)
    ordered = _directed_indecomposables(A3).ordered
    assert [ordered[j].dims for j in e] == [(0, 1, 1)]
    assert t2.dims[2] == (0, 1, 0)
    assert frozenset(t2.dims) == frozenset({(1, 1, 1), (0, 1, 1), (0, 1, 0)})
    # the chain's first step is this swap, written from the table
    w = prop8_descent(A3, t)["steps"][0]
    assert w["replaced_index"] == 2
    assert w["dim_t0"] == [0, 0, 1]
    assert w["e_summands"] == [[0, 1, 1]]
    assert w["dim_t0_prime"] == [0, 1, 0]
    assert w["torsion_before"] == 6 and w["torsion_after"] == 5


def test_all_a3_chains():
    counts = sorted(
        prop8_descent(A3, t)["step_count"] for t in enumerate_tilting_modules(A3)
    )
    assert counts == [0, 1, 1, 2, 3]


@pytest.mark.parametrize("q,bound", [(A3, 6), (D4, 12)])
def test_descent_invariants_everywhere(q, bound):
    inj = frozenset(m.dims for m in injectives(q))
    ordered = _directed_indecomposables(q).ordered
    ed = euler_data(q)
    for t in enumerate_tilting_modules(q):
        report = prop8_descent(q, t)
        sizes = report["torsion_sizes"]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert report["step_count"] <= bound
        assert report["terminal_injectives"] is True
        assert sizes[-1] == q.n
        for step in report["steps"]:
            total = [a + b for a, b in zip(step["dim_t0"], step["dim_t0_prime"])]
            assert total == step["dim_e"]
            assert step["t0_prime_preinjective"] is is_preinjective(ed, step["dim_t0_prime"])
        # replaying the chain through fresh certificates reproduces every
        # field of every step and lands on the injective cogenerator
        cur = t
        for step in report["steps"]:
            k = step["replaced_index"]
            assert list(cur.dims[k]) == step["dim_t0"]
            assert torsion_class(q, cur).bit_count() == step["torsion_before"]
            cur, e = complement_and_sequence(q, cur, k)
            assert list(cur.dims[k]) == step["dim_t0_prime"]
            assert [list(ordered[j].dims) for j in e] == step["e_summands"]
            assert torsion_class(q, cur).bit_count() == step["torsion_after"]
        assert frozenset(cur.dims) == inj


@pytest.mark.parametrize(
    "q",
    [A3, A5, D4, D5, D6, E6, pytest.param(E7, marks=pytest.mark.slow),
     pytest.param(E8, marks=pytest.mark.slow)],
    ids=["A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"],
)
def test_ext_table_matches_hom_solve(q):
    # the Euler-form table against the hom_space oracle, pair by pair
    table = _directed_indecomposables(q)
    assert [m.dims for m in table.ordered] == sorted(
        table.index, key=table.index.__getitem__
    )
    for i, a in enumerate(table.ordered):
        for j, b in enumerate(table.ordered):
            assert table.hh[i][j] == hom(a, b).dim, (a.dims, b.dims)
            e = ext1_dim(a, b)
            assert table.ext[i][j] == e, (a.dims, b.dims)
            assert (table.ext_free[i] >> j & 1) == (e == 0)


@pytest.mark.parametrize("q", [A3, A5, D5, E6, E7], ids=["A3", "A5", "D5", "E6", "E7"])
def test_hom_table_is_unitriangular_and_masked(q):
    # bricks on the diagonal and no maps from a later id to an earlier one,
    # which the middle-term back-substitution reads; hom_into[j] holds the
    # other ids that map to j, which the descent summand search reads
    table = _directed_indecomposables(q)
    hh, hom_into = table.hh, table.hom_into
    nn = len(hh)
    for j in range(nn):
        assert hh[j][j] == 1
        assert not any(hh[i][j] for i in range(j + 1, nn))
        assert hom_into[j] == sum(1 << i for i in range(nn) if i != j and hh[i][j])


def test_table_refuses_a_non_brick(monkeypatch):
    # a doubled Euler form gives every module a two dimensional endomorphism ring
    doubled = [[2 * x for x in row] for row in euler_data(A3).euler_matrix]
    monkeypatch.setattr(tilting, "euler_data", lambda q: SimpleNamespace(euler_matrix=doubled))
    _directed_indecomposables.cache_clear()
    try:
        with pytest.raises(AssertionError, match="nontrivial endomorphism ring"):
            _directed_indecomposables(A3)
    finally:
        _directed_indecomposables.cache_clear()


def test_table_refuses_a_gammac_hom_disagreement(monkeypatch):
    # GammaC's hom from P_1 to another module raised by 1, after GammaC's own
    # checks have run: the Euler-form table no longer matches it
    def planted(q):
        g = GammaC(q)
        x = g.proj_i[0]
        y = next(y for y, v in enumerate(g.vertices) if v.is_module and y != x)
        row = g.hom_i[x][:y] + (g.hom_i[x][y] + 1,) + g.hom_i[x][y + 1 :]
        g.hom_i = g.hom_i[:x] + (row,) + g.hom_i[x + 1 :]
        return g

    monkeypatch.setattr(tilting, "GammaC", planted)
    _directed_indecomposables.cache_clear()
    try:
        with pytest.raises(AssertionError, match="Euler form and GammaC hom rows disagree"):
            _directed_indecomposables(A3)
    finally:
        _directed_indecomposables.cache_clear()


def test_table_solves_only_the_bases_a_swap_reads(monkeypatch):
    # hom dimensions come from the Euler form; a basis is solved only for a
    # compatible pair with nonzero hom, the pairs _cokernel can look up
    table = _directed_indecomposables(E6)
    nn = len(table.ordered)
    pairs = {
        (i, j)
        for i in range(nn)
        for j in range(nn)
        if i != j and table.hh[i][j] and table.compat[i] >> j & 1
    }
    assert set(table.hom_basis) == pairs
    assert all(len(table.hom_basis[i, j]) == table.hh[i][j] for i, j in pairs)
    calls = []
    solve = reps.hom_space
    monkeypatch.setattr(reps, "hom_space", lambda *a: calls.append(1) or solve(*a))
    # a cold module cache, so the brick checks of the orbit walk are counted
    reps._indecomposables.cache_clear()
    fresh = _directed_indecomposables.__wrapped__(E6)
    assert fresh[1:] == table[1:]
    # one brick check per indecomposable plus one solve per stored basis
    assert len(calls) == nn + len(pairs) <= 228


def test_e6_table_holds_only_ints():
    # every value the module layer builds over a Dynkin quiver is integral,
    # so no arrow matrix or stored hom basis carries a Fraction
    table = _directed_indecomposables(E6)
    entries = [x for m in table.ordered for a in m.mats for row in a for x in row]
    entries += [
        x for basis in table.hom_basis.values() for f in basis for fv in f for row in fv for x in row
    ]
    assert len(table.ordered) == 36 and len(table.hom_basis) == 192
    assert entries and {type(x) for x in entries} == {int}


def _brute_force_torsion(q, t):
    return frozenset(
        m.dims
        for m in all_indecomposables(q)
        if all(ext1_dim(s, m) == 0 for s in t.summands)
    )


@pytest.mark.parametrize("q", [A4, D4], ids=["A4", "D4"])
def test_torsion_class_matches_brute_force(q):
    table = _directed_indecomposables(q)
    for t in enumerate_tilting_modules(q):
        assert torsion_class(q, t) == sum(1 << table.index[d] for d in _brute_force_torsion(q, t))


@pytest.mark.parametrize("q,total", [(A4, 37), (D4, 75)], ids=["A4", "D4"])
def test_survival_mask_matches_hom_solve(q, total):
    # replays every descent step and checks the removed summand's ext-free
    # mask bit by bit against a fresh solve, then the survival test itself
    table = _directed_indecomposables(q)
    steps = 0
    for t in enumerate_tilting_modules(q):
        cur = t
        while (k := find_descent_summand(q, cur)) is not None:
            t0 = cur.summands[k]
            cur, _ = complement_and_sequence(q, cur, k)
            free = table.ext_free[table.index[t0.dims]]
            ext = {d: ext1_dim(t0, indecomposable_from_root(q, d)) for d in table.index}
            for d, e in ext.items():
                assert (free >> table.index[d] & 1) == (e == 0), (t0.dims, d)
            tc = torsion_class(q, cur)
            assert bool(tc & ~free) == any(ext[d] for d in torsion_dims(q, tc))
            steps += 1
    assert steps == total


def test_non_dynkin_quiver_is_refused():
    qa = builtin_quiver("Atilde21")
    algebra = MonomialAlgebra(qa, ())
    ps = tuple(projective(algebra, i) for i in range(1, qa.n + 1))
    assert [p.dims for p in ps] == [(1, 1, 2), (0, 1, 1), (0, 0, 1)]
    with pytest.raises(ValueError, match="need a Dynkin quiver, got A~"):
        TiltingModule.of(qa, ps)


def _copy(m, scale=1):
    return Representation(m.quiver, m.dims, [[[scale * x for x in row] for row in a] for a in m.mats])


def test_modules_built_apart_compare_equal():
    a = TiltingModule.of(A3, projectives(A3))
    b = TiltingModule.of(A3, tuple(_copy(p) for p in projectives(A3)))
    assert a == b and hash(a) == hash(b)
    assert a.ids == b.ids
    assert {a, b} == {TiltingModule(A3, a.ids)}


def test_decomposable_summand_on_a_root_is_refused():
    # S1 + S2 has the dimension vector (1, 1, 0) of an indecomposable, so only
    # the brick check tells it apart from that module
    s1, s2 = rep(A3, (1, 0, 0)), rep(A3, (0, 1, 0))
    p1, p2, p3 = projectives(A3)
    assert (1, 1, 0) in _directed_indecomposables(A3).index
    with pytest.raises(DecomposableSummand):
        TiltingModule.of(A3, (direct_sum(s1, s2), p2, p3))
    with pytest.raises(DecomposableSummand):
        TiltingModule.of(A3, (p1, direct_sum(s1, s2), p3))


def test_isomorphic_brick_maps_to_the_table_module():
    ps = projectives(A3)
    scaled = _copy(ps[0], scale=2)
    assert scaled.mats != ps[0].mats and scaled.dims == ps[0].dims
    t = TiltingModule.of(A3, ps)
    t_scaled = TiltingModule.of(A3, (scaled,) + ps[1:])
    assert t_scaled.ids == t.ids
    table = _directed_indecomposables(A3)
    assert t_scaled.summands[0] is table.ordered[t.ids[0]]
    assert torsion_class(A3, t_scaled) == torsion_class(A3, t)
    assert prop8_descent(A3, t_scaled) == prop8_descent(A3, t)


def test_ids_are_checked_by_lookup():
    table = _directed_indecomposables(A3)
    ids = tuple(table.index[d] for d in ((1, 1, 1), (0, 1, 1), (0, 0, 1)))
    t = TiltingModule(A3, ids)
    assert t.dims == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert t.summands == tuple(table.ordered[i] for i in ids)
    with pytest.raises(NotTilting, match="repeated"):
        TiltingModule(A3, ids[:2] + ids[:1])
    with pytest.raises(NotTilting, match="need 3 summands"):
        TiltingModule(A3, ids[:2])
    with pytest.raises(NotTilting, match="ext"):
        TiltingModule(A3, ids[:2] + (table.index[(1, 0, 0)],))
    with pytest.raises(ValueError, match="out of range"):
        TiltingModule(A3, ids[:2] + (-1,))
    with pytest.raises(ValueError, match="out of range"):
        TiltingModule(A3, ids[:2] + (len(table.ordered),))


@pytest.mark.parametrize("q,other", [(A4, A3), (D4, A4)], ids=["A4", "D4"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda q, t, k: _cokernel(q, t, k),
        lambda q, t, k: complement_and_sequence(q, t, k),
        lambda q, t, k: torsion_class(q, t),
        lambda q, t, k: find_descent_summand(q, t),
    ],
    ids=["_cokernel", "complement_and_sequence", "torsion_class", "find_descent_summand"],
)
def test_tilting_module_on_another_quiver_is_refused(q, other, entry):
    # the table of q read with the ids of a module over another quiver is an
    # input error, never a module over q or an engine fault
    t = TiltingModule.of(other, projectives(other))
    k = find_descent_summand(other, t)
    assert k is not None
    with pytest.raises(ValueError, match="tilting module lives on a different quiver"):
        entry(q, t, k)


def test_dynkin_module_traffic_is_integral(monkeypatch):
    # the hom and ext systems hand module entries to linalg unscaled: every
    # module, stored hom basis and certified cokernel the Dynkin engine makes
    # has int entries, so no Fraction ever reaches linalg's rational branch
    def entries(blocks):
        return {type(x) for block in blocks for row in block for x in row}

    cokernels = []
    real = tilting._cokernel

    def recording(q, t, k):
        cokernels.append(real(q, t, k))
        return cokernels[-1]

    monkeypatch.setattr(tilting, "_cokernel", recording)
    for q, chains in ((A5, 42), (D6, 294), (E6, 418)):
        _directed_indecomposables.cache_clear()
        assert len([prop8_descent(q, t) for t in enumerate_tilting_modules(q)]) == chains
        table = _directed_indecomposables(q)
        assert len(cokernels) == len(table.swaps)
        assert all(entries(m.mats) <= {int} for m in table.ordered + tuple(cokernels))
        assert all(entries(b) <= {int} for basis in table.hom_basis.values() for b in basis)
        cokernels.clear()
    for q in (E7, E8):
        table = _directed_indecomposables(q)
        assert all(entries(m.mats) <= {int} for m in table.ordered)
        assert all(entries(b) <= {int} for basis in table.hom_basis.values() for b in basis)


@pytest.mark.parametrize(
    "q,total", [(A5, 176), (D4, 75), (D5, 493)], ids=["A5", "D4", "D5"]
)
def test_table_prediction_matches_cokernel_decomposition(q, total):
    # every descent step, read the old way: decompose the cokernel W by hom
    # solves, strip every copy of the remaining summands, and take E as the
    # approximation target minus the stripped copies
    steps = 0
    for t in enumerate_tilting_modules(q):
        cur = t
        while (k := find_descent_summand(q, cur)) is not None:
            t0, rest = cur.summands[k], [s for i, s in enumerate(cur.summands) if i != k]
            parts = list(module_summand_dims(q, _cokernel(q, cur, k)))
            approx = sorted(s.dims for s in rest for _ in range(hom(t0, s).dim))
            for s in rest:
                while s.dims in parts:
                    parts.remove(s.dims)
                    approx.remove(s.dims)
            new, e = complement_and_sequence(q, cur, k)
            assert [new.dims[k]] == parts, (cur.dims, k)
            assert [_directed_indecomposables(q).ordered[j].dims for j in e] == approx, (cur.dims, k)
            assert set(new.dims) - set(cur.dims) == set(parts)
            cur = new
            steps += 1
    assert steps == total


def test_certificate_refuses_a_non_rigid_cokernel(monkeypatch):
    # swapping P3 out of A3's projectives: W = (P1 + P2) / P3 = P1 + S2
    t = TiltingModule.of(A3, projectives(A3))
    w = _cokernel(A3, t, 2)
    assert w.dims == (1, 2, 1)
    assert module_summand_dims(A3, w) == ((0, 1, 0), (1, 1, 1))
    complement_and_sequence(A3, t, 2)
    # zero arrow maps give the semisimple module of the same dimension
    # vector, which has self-extensions
    flat = Representation.from_dims(A3, w.dims)
    monkeypatch.setattr(tilting, "_cokernel", lambda q, t, k: flat)
    with pytest.raises(DescentStepError, match="is not rigid"):
        complement_and_sequence(A3, t, 2)
    # a descent's first swap from the projectives is this one; on a cleared
    # table it misses the swap memo and runs the same certificate
    _directed_indecomposables.cache_clear()
    with pytest.raises(DescentStepError, match="is not rigid"):
        prop8_descent(A3, t)
    assert not _directed_indecomposables(A3).swaps


def _cokernel_oracle(q, t, k):
    """The cokernel W of the approximation of summand k, read off the whole
    block-diagonal middle module E as ``direct_sum`` builds it."""
    table, i0 = _directed_indecomposables(q), t.ids[k]
    blocks = [
        (table.ordered[j], f) for j in t.ids if j != i0 for f in table.hom_basis.get((i0, j), ())
    ]
    e_rep = direct_sum(*(s for s, _ in blocks))
    proj, free = [], []
    for v, ev in enumerate(e_rep.dims):
        stacked = linalg.transpose([row for _, f in blocks for row in f[v]], cols=ev)
        proj.append(linalg.nullspace(stacked, ev))
        free.append([max(c for c, x in enumerate(row) if x) for row in proj[v]])
    w_mats = []
    for idx, (sv, tv) in enumerate(q.arrows):
        pe = linalg.mat_mul(proj[tv - 1], e_rep.mats[idx], e_rep.dims[sv - 1])
        w_mats.append([[row[c] for c in free[sv - 1]] for row in pe])
    return Representation(q, tuple(map(len, proj)), w_mats)


@pytest.mark.parametrize("q,swaps", [(D5, 82), (E6, 499)], ids=["D5", "E6"])
def test_cokernel_blocks_match_the_direct_sum_oracle(monkeypatch, q, swaps):
    # the block-by-block cokernel of every certified swap equals the one read
    # off the whole E, and passes every check of the public constructor
    seen = []
    cokernel = tilting._cokernel
    monkeypatch.setattr(
        tilting, "_cokernel", lambda q, t, k: seen.append((t, k, cokernel(q, t, k))) or seen[-1][2]
    )
    _cold_sweep(q)
    assert len(seen) == len(_directed_indecomposables(q).swaps) == swaps
    for t, k, w in seen:
        oracle = _cokernel_oracle(q, t, k)
        assert (w.dims, w.mats) == (oracle.dims, oracle.mats), (t.ids, k)
        assert Representation(w.algebra, w.dims, w.mats).mats == w.mats
    # the orbit walk builds every indecomposable through the same trusted path
    for m in _directed_indecomposables(q).ordered:
        assert Representation(m.algebra, m.dims, m.mats).mats == m.mats


@pytest.mark.parametrize("q,swaps", [(D5, 82), (E6, 499)], ids=["D5", "E6"])
def test_middle_term_is_the_dimension_solve(q, swaps):
    # every certified swap's E against a rational solve of the dimension
    # identity over the remaining summands, independent of the hom counts
    _cold_sweep(q)
    table = _directed_indecomposables(q)
    dims = [m.dims for m in table.ordered]
    assert len(table.swaps) == swaps
    for (mask, t0), (t0p, e) in table.swaps.items():
        rest = [j for j in range(len(dims)) if mask >> j & 1 and j != t0]
        target = [a + b for a, b in zip(dims[t0], dims[t0p])]
        mult = solve([[dims[j][v] for j in rest] for v in range(q.n)], target, len(rest))
        assert sorted(e) == [j for j, x in zip(rest, mult) for _ in range(x)], (mask, t0)


def test_cold_d4_sweep_classifies_the_diagram_once_per_table(monkeypatch):
    # the orbit walk classifies D4 once; GammaC, the module walk, the table
    # and every chain read the diagram from its rows
    calls = []
    classify = quivers.classify_diagram
    monkeypatch.setattr(quivers, "classify_diagram", lambda q: calls.append(q) or classify(q))
    for cached in (quivers.tau_orbits, quivers.positive_roots, reps._indecomposables):
        cached.cache_clear()
    chains = _cold_sweep(D4)
    assert len(chains) == 20 and {c["diagram"] for c in chains} == {"D4"}
    assert len(calls) == 1


# Coxeter number and exponents: the tilting modules are counted by the
# positive Catalan number prod (h + e - 1) / (e + 1) (Fomin-Zelevinsky)
COXETER = {
    "A1": (2, (1,)),
    "A2": (3, (1, 2)),
    "A3": (4, (1, 2, 3)),
    "A4": (5, (1, 2, 3, 4)),
    "A5": (6, (1, 2, 3, 4, 5)),
    "A6": (7, (1, 2, 3, 4, 5, 6)),
    "D4": (6, (1, 3, 3, 5)),
    "D5": (8, (1, 3, 4, 5, 7)),
    "D6": (10, (1, 3, 5, 5, 7, 9)),
    "E6": (12, (1, 4, 5, 7, 8, 11)),
    "E7": (18, (1, 5, 7, 9, 11, 13, 17)),
    "E8": (30, (1, 7, 11, 13, 17, 19, 23, 29)),
}


def _positive_catalan(name):
    h, exponents = COXETER[name]
    num = den = 1
    for e in exponents:
        num *= h + e - 1
        den *= e + 1
    assert num % den == 0
    return num // den


def _module_tilting_objects(q):
    # tilting objects of the cluster category with no shifted projective
    g = GammaC(q)
    found = set()
    for summands, _, _ in walk_tilting(g):
        labels = [g.vertices[x] for x in summands]
        if all(v.is_module for v in labels):
            found.add(frozenset(v.dims for v in labels))
    return found


def _three_routes(name, q, count):
    assert _positive_catalan(name) == count
    tilts = enumerate_tilting_modules(q)
    assert len(tilts) == count
    assert [t.ids for t in tilts] == sorted(tuple(sorted(t.ids)) for t in tilts)
    assert {frozenset(t.dims) for t in tilts} == _module_tilting_objects(q)


@pytest.mark.parametrize(
    "name,q,count",
    [
        ("A2", builtin_quiver("A2"), 2),
        ("A3", A3, 5),
        ("A4", A4, 14),
        ("A5", A5, 42),
        ("A6", A6, 132),
        ("D4", D4, 20),
        ("D5", D5, 77),
        ("D6", D6, 294),
        ("E6", E6, 418),
        ("A1", Quiver(1, ()), 1),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_tilting_module_counts_by_three_routes(name, q, count):
    _three_routes(name, q, count)


@pytest.mark.slow
@pytest.mark.parametrize("name,q,count", [("E7", E7, 2431), ("E8", E8, 17_342)], ids=["E7", "E8"])
def test_tilting_module_counts_by_three_routes_e7_e8(name, q, count):
    _three_routes(name, q, count)


def _cold_sweep(q):
    """Every module's descent chain in enumeration order, from an emptied
    table, so every chain after the first reads the swaps before it."""
    _directed_indecomposables.cache_clear()
    return [prop8_descent(q, t) for t in enumerate_tilting_modules(q)]


def _prop8_exhaustive(q, modules, steps, swaps):
    # streams the chains: E7 has 55,970 steps
    _directed_indecomposables.cache_clear()
    tilts = enumerate_tilting_modules(q)
    total = 0
    for t in tilts:
        report = prop8_descent(q, t)
        assert report["terminal_injectives"] is True
        assert report["torsion_sizes"][-1] == q.n
        total += report["step_count"]
    assert (len(tilts), total) == (modules, steps)
    # one certified swap per distinct (summand set, T0)
    assert len(_directed_indecomposables(q).swaps) == swaps


@pytest.mark.parametrize(
    "q,modules,steps,swaps",
    [(D4, 20, 75, 20), (A5, 42, 176, 41), (D6, 294, 2795, 321)],
    ids=["D4", "A5", "D6"],
)
def test_swap_memo_size_after_cold_sweep(q, modules, steps, swaps):
    _prop8_exhaustive(q, modules, steps, swaps)


def test_prop8_exhaustive_e6():
    _prop8_exhaustive(E6, 418, 5217, 499)


def test_prop8_exhaustive_e7():
    _prop8_exhaustive(E7, 2431, 55_970, 3020)


@pytest.mark.slow
def test_prop8_exhaustive_e8():
    _prop8_exhaustive(E8, 17_342, 800_834, 21_869)


@pytest.mark.parametrize(
    "q,digest",
    [
        (A5, "2411eb9ca5d909c9f5fc5c66ab39b47a6aa6682d39f0de87e0552c07da7320d5"),
        (D5, "7f4206ff0e7c69692d857882778ea010e77c3871c0adb8ef51f18daf96bc7216"),
        (D6, "3fd04e18a7e2e477541ba34e6e64a48775ed6aaf36197ce125a4708277ef8171"),
        (E6, "64a899e7eb2724126c722f5553bfa99ff33ac38fef0870acc46e0013289b4bb9"),
    ],
    ids=["A5", "D5", "D6", "E6"],
)
def test_prop8_chains_are_pinned(q, digest):
    # every chain of every tilting module, byte for byte
    chains = [prop8_descent(q, t) for t in enumerate_tilting_modules(q)]
    assert hashlib.sha256(json.dumps(chains, sort_keys=True).encode()).hexdigest() == digest


MODULE_ROUTE_DIGESTS = {
    "D4": "962d2898ed834588f53a38336e75d97151c9d594d6b8034327d9e2a1064b7563",
    "E6": "0d693038696a818af47f6f318e9ef8ac72c2a32e6bd7434db2bd1d1210ea37eb",
    "E8": "afa8a485814b132065d971376a7114d3ec376ba0170a155312e7db9ceecbb1cf",
    "E8-reversed": "87c43601af74da3ebb9c99f1acb2de457f4e2b7c21c4debe392bf708e0a11936",
}


@pytest.mark.parametrize("name", MODULE_ROUTE_DIGESTS)
def test_module_route_is_pinned(name):
    # sha256 of the orbit modules, in walk order, and of the module table
    # built on them: another route to them must give the same modules
    q = {"D4": D4, "E6": E6, "E8": E8, "E8-reversed": Quiver(8, tuple((t, s) for s, t in E8.arrows))}[name]
    table = _directed_indecomposables(q)
    fields = {
        "indecomposables": [[m.dims, m.mats] for m in reps._indecomposables(q).values()],
        "ordered": [[m.dims, m.mats] for m in table.ordered],
        "hh": table.hh, "ext": table.ext, "compat": table.compat, "hom_into": table.hom_into,
        "hom_basis": [[i, j, b] for (i, j), b in table.hom_basis.items()],
        "injective": sorted(table.injective),
    }
    text = json.dumps(fields, sort_keys=True, default=str)  # a Fraction entry as "p/q"
    assert hashlib.sha256(text.encode()).hexdigest() == MODULE_ROUTE_DIGESTS[name]


@pytest.mark.parametrize(
    "q",
    [builtin_quiver("A2"), A3, A4, A5, D4, D5, pytest.param(D6, marks=pytest.mark.slow)],
    ids=["A2", "A3", "A4", "A5", "D4", "D5", "D6"],
)
def test_memo_shared_chains_equal_cold_chains(q):
    shared = [json.dumps(c) for c in _cold_sweep(q)]
    cold = []
    for t in enumerate_tilting_modules(q):
        _directed_indecomposables.cache_clear()
        cold.append(json.dumps(prop8_descent(q, t)))
    assert shared == cold


def _scribble(x):
    if isinstance(x, list):
        for y in x:
            _scribble(y)
        x.append(-1)


def test_witness_lists_are_not_shared_between_chains():
    chains = _cold_sweep(A3)
    snapshot = json.dumps(chains)
    assert sum(c["step_count"] for c in chains) > len(_directed_indecomposables(A3).swaps)
    for i, chain in enumerate(chains):
        for step in chain["steps"]:
            for v in step.values():
                _scribble(v)
        assert json.dumps(chains[i + 1:]) == json.dumps(json.loads(snapshot)[i + 1:])
        again = [prop8_descent(A3, t) for t in enumerate_tilting_modules(A3)]
        assert json.dumps(again) == snapshot


def test_a_wrong_memo_entry_fails_loudly():
    # every wrong T0' id is refused: T0 itself does not shrink the torsion
    # class, another summand repeats, and any other module has ext with the
    # rest, since an almost complete tilting module has only two complements
    _cold_sweep(A3)
    table = _directed_indecomposables(A3)
    key, (t0p, e) = next(iter(table.swaps.items()))
    try:
        for wrong in range(len(table.ordered)):
            if wrong == t0p:
                continue
            table.swaps[key] = (wrong, e)
            with pytest.raises((NotTilting, DescentStepError)):
                for t in enumerate_tilting_modules(A3):
                    prop8_descent(A3, t)
    finally:
        _directed_indecomposables.cache_clear()


def test_cold_a5_sweep_checks_one_module_per_certified_swap(monkeypatch):
    # the enumeration checks its 42 modules and each of the 41 certified
    # swaps its new one; the other 135 steps read the memo and build their
    # module from the certified summand set unchecked
    calls = []
    check = TiltingModule.__post_init__
    monkeypatch.setattr(TiltingModule, "__post_init__", lambda t: calls.append(t) or check(t))
    chains = _cold_sweep(A5)
    assert sum(c["step_count"] for c in chains) == 176
    assert len(calls) == 42 + 41


def test_memo_read_modules_equal_checked_modules(monkeypatch):
    built = []
    swapped = TiltingModule._swapped

    def recorded(t, k, t0p):
        built.append(swapped(t, k, t0p))
        return built[-1]

    monkeypatch.setattr(TiltingModule, "_swapped", recorded)
    _cold_sweep(A5)
    assert len(built) == 176 - 41
    for m in built:
        checked = TiltingModule(A5, m.ids)
        assert (m, m.key, repr(m)) == (checked, checked.key, repr(checked))


def test_cold_d4_sweep_reads_each_torsion_class_once(monkeypatch):
    # one torsion class per chain start and one per step: the certificate
    # computes none, so certified and memo-read steps cost the same
    calls = []
    monkeypatch.setattr(tilting, "torsion_class", lambda q, t: calls.append(t) or torsion_class(q, t))
    chains = _cold_sweep(D4)
    assert (len(chains), sum(c["step_count"] for c in chains)) == (20, 75)
    assert len(calls) == 95
