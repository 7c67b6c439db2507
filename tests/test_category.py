"""Checks for the cluster category tables.

The hom table inside GammaC is produced by mesh knitting.  The oracle
below recomputes every hom dimension from plain module theory through the
orbit construction: maps X -> Y come from module maps together with maps
into the translate of the shift, so for modules

    hom_C(X, Y) = hom(X, Y) + ext1(X, tau_inverse(Y))

with the correction dropped when Y is injective, and the shifted
projectives are handled through ext groups and projective supports.  The
two routes share no code.
"""

import copy
import dataclasses
import functools
import itertools
import operator

import pytest
from test_reps import tau, tau_inverse

from clustercat.category import (
    CategorifiedSeed,
    CVertex,
    ExchangeData,
    GammaC,
    MultipleComplements,
    NoComplement,
    _theorem1_report,
    den_vs_hom_crosscheck,
    exchange_data,
    initial_seed_c,
    is_compatible,
    lemma6_check,
    mutate_tilting,
    shifted_initial_seed_c,
    theorem1_injectivity,
    walk_tilting,
)
from clustercat.laurent import explore_exchange_graph
from clustercat.quivers import Quiver, builtin_quiver, exchange_matrix, mutate_matrix
from clustercat.reps import (
    ext1_dim,
    hom,
    indecomposable_from_root,
    injective_dims,
    projective_dims,
)
from clustercat.tilting import enumerate_tilting_modules, prop8_descent


A1 = Quiver(1, ())
D5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
D6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
E8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))
QUIVERS = {"A4": builtin_quiver("A4"), "D4": builtin_quiver("D4"), "D6": D6, "E6": E6}


def oracle_hom_c(quiver, x: CVertex, y: CVertex) -> int:
    """Module-theoretic recomputation of the cluster category hom table."""
    if x.is_module and y.is_module:
        mx = indecomposable_from_root(quiver, x.dims)
        my = indecomposable_from_root(quiver, y.dims)
        total = hom(mx, my).dim
        ty = tau_inverse(my)
        if ty is not None:
            total += ext1_dim(mx, ty)
        return total
    if x.is_module and not y.is_module:
        mx = indecomposable_from_root(quiver, x.dims)
        pj = indecomposable_from_root(quiver, projective_dims(quiver, y.shift_vertex))
        return ext1_dim(mx, pj)
    if not x.is_module and y.is_module:
        my = indecomposable_from_root(quiver, y.dims)
        ty = tau_inverse(my)
        if ty is None:
            return 0
        return ty.dims[x.shift_vertex - 1]
    return projective_dims(quiver, y.shift_vertex)[x.shift_vertex - 1]


def oracle_tau(quiver, v: CVertex) -> CVertex:
    """Translate in the cluster category from module theory: tau P_i is the
    shift of P_i, the shift of P_i goes to I_i, and any other module goes to
    its AR translate."""
    if not v.is_module:
        return CVertex.module(injective_dims(quiver, v.shift_vertex))
    for i in range(1, quiver.n + 1):
        if v.dims == projective_dims(quiver, i):
            return CVertex.shifted_projective(i)
    return CVertex.module(tau(indecomposable_from_root(quiver, v.dims)).dims)


@pytest.mark.parametrize(
    "q",
    [
        builtin_quiver("A2"),
        builtin_quiver("A3"),
        builtin_quiver("D4"),
        builtin_quiver("A4"),
        D5,
        pytest.param(D6, marks=pytest.mark.slow),
        pytest.param(E6, marks=pytest.mark.slow),
    ],
    ids=["A2", "A3", "D4", "A4", "D5", "D6", "E6"],
)
def test_hom_table_matches_module_oracle(q):
    g = GammaC(q)
    for x, vx in enumerate(g.vertices):
        for y, vy in enumerate(g.vertices):
            assert g.hom_i[x][y] == oracle_hom_c(q, vx, vy), (vx, vy)


def linear(n):
    return Quiver(n, tuple((i, i + 1) for i in range(1, n)))


@pytest.mark.parametrize(
    "q",
    [A1, *map(linear, range(2, 7)), builtin_quiver("D4"), D5, D6, E6, E7, E8],
    ids=["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8"],
)
def test_hom_rows_are_translated_projective_rows(q):
    # each row is knitted from P_i and read at tau^k; the per-vertex
    # knitting it replaced is the reference
    g = GammaC(q)
    assert g.hom_i == tuple(g._knit_row(v) for v in g.vertices)


def test_gammac_knits_one_hammock_per_projective(monkeypatch):
    calls = []
    real = GammaC.hammock

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(GammaC, "hammock", counting)
    g = GammaC(E8)
    assert len(g.vertices) == 128
    assert calls == [g.vertices[p] for p in g.proj_i]


@pytest.mark.parametrize("name,count", [("A2", 5), ("A3", 9), ("A4", 14), ("D4", 16)])
def test_vertex_counts(name, count):
    g = GammaC(builtin_quiver(name))
    assert len(g.vertices) == count


def ext_c(g, x, y):
    """dim Ext^1(x, y) in the cluster category, as hom(x, tau y)."""
    return g.hom_i[x][g.tau_i[y]]


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_serre_duality_symmetry(name):
    g = GammaC(builtin_quiver(name))
    ids = range(len(g.vertices))
    for x in ids:
        for y in ids:
            assert ext_c(g, x, y) == ext_c(g, y, x)


def test_almost_split_self_extension():
    g = GammaC(builtin_quiver("A3"))
    for x in range(len(g.vertices)):
        assert ext_c(g, x, g.tau_i[x]) == 1


def test_tau_bijections():
    g = GammaC(builtin_quiver("A3"))
    assert sorted(g.tau_i) == list(range(len(g.vertices)))


def test_shift_is_tau_of_projective():
    q = builtin_quiver("A3")
    g = GammaC(q)
    for i in (1, 2, 3):
        assert g.vertices[g.proj_i[i - 1]] == CVertex.module(projective_dims(q, i))
        assert g.vertices[g.shift_i[i - 1]] == CVertex.shifted_projective(i)
        assert g.tau_i[g.proj_i[i - 1]] == g.shift_i[i - 1]


def brute_force_tilting_count(g):
    n = g.quiver.n
    count = 0
    for combo in itertools.combinations(range(len(g.vertices)), n):
        if all(
            ext_c(g, a, b) == 0
            for a, b in itertools.combinations_with_replacement(combo, 2)
        ):
            count += 1
    return count


def expanded_seeds(g):
    """The seeds walk_tilting expands, one per tilting object."""
    return [seed for seed, k, _ in walk_tilting(g) if k == 1]


@pytest.mark.parametrize("name,count", [("A2", 5), ("A3", 14), ("D4", 50)])
def test_tilting_object_counts_two_routes(name, count):
    g = GammaC(builtin_quiver(name))
    reached = expanded_seeds(g)
    assert len(reached) == count
    assert brute_force_tilting_count(g) == count
    assert reached[0] == initial_seed_c(g)


def test_a1_counts():
    # with one vertex no other summand narrows the partner mask
    g = GammaC(A1)
    assert [seed.summands for seed in expanded_seeds(g)] == [g.proj_i, g.shift_i]
    assert explore_exchange_graph(exchange_matrix(A1)).cluster_count == 2
    (only,) = enumerate_tilting_modules(A1)
    assert prop8_descent(A1, only)["step_count"] == 0


def test_walk_hashes_no_vertex_label(monkeypatch):
    # once GammaC is built, the walk runs on ids alone
    g = GammaC(E6)
    hashed = []
    label_hash = CVertex.__hash__

    def counting_hash(v):
        hashed.append(v)
        return label_hash(v)

    monkeypatch.setattr(CVertex, "__hash__", counting_hash)
    assert len([edge for edge in walk_tilting(g) if edge[1] == 1]) == 833
    assert hashed == []


@pytest.mark.parametrize("name", ["A4", "D4", "D6", "E6"])
def test_int_tables_match_vertex_queries(name):
    g = GammaC(QUIVERS[name])
    assert [g.index[v] for v in g.vertices] == list(range(len(g.vertices)))
    for x, vx in enumerate(g.vertices):
        assert g.vertices[g.tau_i[x]] == oracle_tau(QUIVERS[name], vx)
        for y, vy in enumerate(g.vertices):
            ext_free = ext_c(g, x, y) == 0 and ext_c(g, y, x) == 0
            assert bool(g.ext_free[x] >> y & 1) == ext_free, (vx, vy)


def brute_force_partner(g, seed, k):
    """Exchange partner of summand k by scanning every indecomposable for one
    that is rigid and ext-free with the other summands, with the middle terms
    read off the matrix column and ordered by their labels' sort keys; the
    route mutate_tilting replaced."""
    n = g.quiver.n
    tk = seed.summands[k - 1]
    others = tuple(v for i, v in enumerate(seed.summands) if i != k - 1)
    found = [
        cand
        for cand in range(len(g.vertices))
        if cand != tk
        and cand not in others
        and not ext_c(g, cand, cand)
        and all(not ext_c(g, cand, o) and not ext_c(g, o, cand) for o in others)
    ]
    col = [seed.b[i][k - 1] for i in range(n)]

    def middle(sign):
        pairs = {seed.summands[i]: sign * col[i] for i in range(n) if sign * col[i] > 0}
        return tuple(sorted(pairs.items(), key=lambda p: g.vertices[p[0]].sort_key()))

    return found, middle(1), middle(-1)


@pytest.mark.parametrize("name", ["A4", "D4", "D6"])
def test_mask_partner_matches_brute_force_scan(name):
    g = GammaC(QUIVERS[name])
    edges = list(walk_tilting(g))
    # the walker builds a seed only for the edge that first reaches its key,
    # and expands the seeds in that order
    expanded = iter([seed for seed, k, _ in edges if k == 1])
    start = next(expanded)
    assert start == initial_seed_c(g)
    seen = {start.tilting_key}
    for seed, k, tk_star in edges:
        found, e, e_prime = brute_force_partner(g, seed, k)
        assert found == [tk_star], (seed.summands, k)
        nxt, xd = mutate_tilting(g, seed, k)
        assert xd == exchange_data(seed, k, tk_star)
        assert xd == ExchangeData(k, seed.summands[k - 1], tk_star, e, e_prime)
        assert ext_c(g, xd.tk, xd.tk_star) == 1
        assert nxt.summands[k - 1] == tk_star
        assert nxt.summands[:k - 1] + nxt.summands[k:] == seed.summands[:k - 1] + seed.summands[k:]
        # the next key comes from one XOR; recompute it from the summands
        assert "tilting_key" in vars(nxt)
        assert nxt.tilting_key == functools.reduce(operator.or_, (1 << x for x in nxt.summands))
        if nxt.tilting_key not in seen:
            seen.add(nxt.tilting_key)
            built = next(expanded)
            assert (built.summands, built.b, built.tilting_key) == (nxt.summands, nxt.b, nxt.tilting_key)
            assert built.b == mutate_matrix(seed.b, k)
    assert next(expanded, None) is None
    # Fomin-Zelevinsky cluster counts
    assert len(seen) == {"A4": 42, "D4": 50, "D6": 672}[name]
    assert len(edges) == len(seen) * g.quiver.n


def test_walk_mutates_matrices_only_for_new_objects(monkeypatch):
    # D4 has 50 tilting objects and 200 edges: the walk mutates the matrix
    # once per object beyond the first, and Theorem 1 builds no exchange data
    from clustercat import category

    calls = {"mutate_matrix": 0, "ExchangeData": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(category, name, wrapper)

    counting("mutate_matrix", category.mutate_matrix)
    counting("ExchangeData", category.ExchangeData)
    g = GammaC(builtin_quiver("D4"))
    assert len(list(walk_tilting(g))) == 200
    assert calls == {"mutate_matrix": 49, "ExchangeData": 0}
    calls["mutate_matrix"] = 0
    assert theorem1_injectivity(builtin_quiver("D4"))["tilting_count"] == 50
    assert calls == {"mutate_matrix": 49, "ExchangeData": 0}


def test_walker_expands_each_tilting_object_once():
    g = GammaC(builtin_quiver("D4"))
    edges = list(walk_tilting(g))
    expanded = [seed for seed, k, _ in edges if k == 1]
    assert [k for _, k, _ in edges] == [1, 2, 3, 4] * len(expanded)
    assert expanded[0] == initial_seed_c(g)
    assert len({s.tilting_key for s in expanded}) == len(expanded) == 50
    for s in expanded:
        assert len(set(s.summands)) == 4
        assert all(ext_c(g, a, b) == 0 for a in s.summands for b in s.summands)


def test_non_tilting_seeds_raise():
    # on seeds that are not tilting objects, the checks that guard the mask
    # route fire exactly where the brute-force scan says they must
    g = GammaC(builtin_quiver("D4"))
    b = initial_seed_c(g).b
    raised = set()
    for combo in itertools.combinations(range(len(g.vertices)), 4):
        seed = CategorifiedSeed(combo, b)
        found, _, _ = brute_force_partner(g, seed, 4)
        if not found:
            error = NoComplement
        elif len(found) > 1:
            error = MultipleComplements
        elif ext_c(g, combo[3], found[0]) != 1:
            error = AssertionError
        else:
            assert mutate_tilting(g, seed, 4)[1].tk_star == found[0]
            continue
        with pytest.raises(error):
            mutate_tilting(g, seed, 4)
        raised.add(error)
    assert raised == {NoComplement, MultipleComplements, AssertionError}
    p1, _, p3, p4 = g.proj_i
    with pytest.raises(ValueError):
        mutate_tilting(g, CategorifiedSeed((p1, p1, p3, p4), b), 2)


def test_mutation_exchange_a2():
    # from the projective seed of 1->2, exchanging position 2 replaces P2
    # by the simple at 1 through the triangle with middle term P1
    g = GammaC(builtin_quiver("A2"))
    seed = initial_seed_c(g)
    new, xd = mutate_tilting(g, seed, 2)
    assert g.vertices[xd.tk] == CVertex.module((0, 1))
    assert g.vertices[xd.tk_star] == CVertex.module((1, 0))
    assert xd.e == ((g.index[CVertex.module((1, 1))], 1),)
    assert xd.e_prime == ()
    assert new.summands[1] == xd.tk_star
    assert new.b == ((0, -1), (1, 0))


def test_mutation_is_involutive():
    g = GammaC(builtin_quiver("A3"))
    seed = initial_seed_c(g)
    for k in (1, 2, 3):
        once, _ = mutate_tilting(g, seed, k)
        twice, _ = mutate_tilting(g, once, k)
        assert twice.tilting_key == seed.tilting_key
        assert twice.b == seed.b


def test_compatibility_and_dual_criterion_sweep():
    g = GammaC(builtin_quiver("A3"))
    seen = 0
    stack = [initial_seed_c(g)]
    visited = {stack[0].tilting_key}
    while stack:
        seed = stack.pop()
        for k in range(1, 4):
            new, xd = mutate_tilting(g, seed, k)
            for x, agree in zip(range(len(g.vertices)), lemma6_check(g, xd), strict=True):
                assert is_compatible(g, x, xd)
                assert agree
                seen += 1
            if new.tilting_key not in visited:
                visited.add(new.tilting_key)
                stack.append(new)
    assert len(visited) == 14
    assert seen == 14 * 3 * 9


def test_tampered_exchange_data_is_detected():
    g = GammaC(builtin_quiver("A3"))
    seed = initial_seed_c(g)
    _, xd = mutate_tilting(g, seed, 2)
    wrong = dataclasses.replace(xd, e=((g.proj_i[2], 1),))
    assert any(not is_compatible(g, x, wrong) for x in range(len(g.vertices)))


def seed_columns(g, seed):
    """Column x of the summands' hom rows, for every vertex x, as
    theorem1_injectivity reads them, and the vertices it leaves out: the
    shift tau T of the tilting object."""
    columns = list(zip(*(g.hom_i[t] for t in seed.summands)))
    return columns, {g.tau_i[t] for t in seed.summands}


def test_hom_columns_on_projective_seed():
    # over the projective seed a module's column is its dimension vector;
    # the left-out shift holds the shifted projectives, whose columns are
    # all zero, so they would break injectivity if they were read
    g = GammaC(builtin_quiver("A3"))
    columns, left_out = seed_columns(g, initial_seed_c(g))
    assert left_out == set(g.shift_i)
    for x, m in enumerate(g.vertices):
        if m.is_module:
            assert columns[x] == m.dims
        else:
            assert columns[x] == (0, 0, 0)


def test_hom_columns_over_shifted_seed():
    # over the shifted seed, hom(P_i[1], M) is the i-th entry of
    # dim tau^-1 M, and hom(P_i[1], P_j[1]) that of dim P_j; the left-out
    # shift holds the injectives, where tau^-1 M is zero
    q = builtin_quiver("A3")
    g = GammaC(q)
    columns, left_out = seed_columns(g, shifted_initial_seed_c(g))
    assert {g.vertices[x] for x in left_out} == {
        CVertex.module(injective_dims(q, i)) for i in (1, 2, 3)
    }
    for x, m in enumerate(g.vertices):
        if not m.is_module:
            assert columns[x] == projective_dims(q, m.shift_vertex)
            continue
        translate = tau_inverse(indecomposable_from_root(q, m.dims))
        if x in left_out:
            assert translate is None
        else:
            assert columns[x] == translate.dims


def test_theorem1_injectivity_reports():
    rep = theorem1_injectivity(builtin_quiver("A2"))
    assert rep["diagram"] == "A2"
    assert rep["vertices"] == 5
    assert rep["tilting_count"] == 5
    assert rep["injective_everywhere"] is True
    assert rep["propagation_cases"] == 30
    assert rep["failures"] == []
    rep3 = theorem1_injectivity(builtin_quiver("A3"))
    assert rep3["tilting_count"] == 14
    assert rep3["injective_everywhere"] is True


def test_theorem1_report_names_two_colliding_columns():
    # a copy of the A3 tables whose column y repeats column x on every row;
    # both are modules, so the projective generator, expanded first, admits them
    g = GammaC(builtin_quiver("A3"))
    start = initial_seed_c(g)
    x, y = [m for m, v in enumerate(g.vertices) if v.is_module][:2]
    assert [g.hom_i[t][x] for t in start.summands] != [g.hom_i[t][y] for t in start.summands]
    bad = copy.copy(g)
    bad.hom_i = tuple(row[:y] + (row[x],) + row[y + 1 :] for row in g.hom_i)
    rep = _theorem1_report(bad, walk_tilting(g))
    assert rep["injective_everywhere"] is False
    assert rep["tilting_count"] == 14
    assert rep["failures"][0] == {
        "tilting": [g.vertices[t].render() for t in start.summands],
        "first": g.vertices[x].render(),
        "second": g.vertices[y].render(),
        "vector": [g.hom_i[t][x] for t in start.summands],
    }


@pytest.mark.parametrize(
    "quiver,count,cases",
    [(A1, 2, 2), (D5, 182, 18_200), (D6, 672, 120_960), (E6, 833, 179_928), (E7, 4160, 1_834_560)],
    ids=["A1", "D5", "D6", "E6", "E7"],
)
def test_theorem1_finite_type_counts(quiver, count, cases):
    # Fomin-Zelevinsky cluster counts; every tilting object and every one of
    # its n mutations checks the objects outside its shift
    rep = theorem1_injectivity(quiver)
    assert rep["tilting_count"] == count
    assert rep["injective_everywhere"] is True
    assert rep["failures"] == []
    assert rep["propagation_cases"] == cases == count * quiver.n * (rep["vertices"] - quiver.n)


@pytest.mark.parametrize(
    "quiver,clusters,variables",
    [(D5, 182, 25), (D6, 672, 36), (E6, 833, 42), pytest.param(E7, 4160, 70, marks=pytest.mark.slow)],
    ids=["D5", "D6", "E6", "E7"],
)
def test_explore_counts_match_tilting_counts(quiver, clusters, variables):
    # two routes to the Fomin-Zelevinsky counts: clusters of the exchange
    # graph against tilting objects, and cluster variables against the
    # indecomposable rigid objects of the cluster category
    rep = theorem1_injectivity(quiver)
    res = explore_exchange_graph(exchange_matrix(quiver))
    assert not res.truncated
    assert res.cluster_count == rep["tilting_count"] == clusters
    assert res.variable_count == rep["vertices"] == variables


def test_theorem1_exhaustive_e8():
    rep = theorem1_injectivity(E8)
    assert rep["vertices"] == 128
    assert rep["tilting_count"] == 25_080
    assert rep["injective_everywhere"] is True
    assert rep["propagation_cases"] == 25_080 * 8 * 120


def test_den_vs_hom_exhaustive_small_depth():
    rep = den_vs_hom_crosscheck(builtin_quiver("A2"), depth=4)
    assert rep["ok"] is True
    assert rep["mismatches"] == []
    assert rep["sequences"] == 1 + 2 + 4 + 8 + 16


def test_den_vs_hom_exhaustive_walks_the_prefix_tree(monkeypatch):
    # each of the 3 + 9 + ... + 3^8 nonempty sequences is one mutation of its
    # parent on both sides: 9,840 steps, where replaying every sequence from
    # the start takes 73,812
    import clustercat.category as category

    calls = {"seed_mutate": 0, "mutate_tilting": 0}
    for name in calls:
        real = getattr(category, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(category, name, counting)
    rep = den_vs_hom_crosscheck(builtin_quiver("A3"), depth=8)
    assert rep["ok"] is True
    assert rep["sequences"] == 9_841
    assert rep["checks"] == 9_840 * 3
    assert calls == {"seed_mutate": 9_840, "mutate_tilting": 9_840}


def test_den_vs_hom_random_a3():
    rep = den_vs_hom_crosscheck(builtin_quiver("A3"), depth=6, samples=40, rng_seed=5)
    assert rep["ok"] is True
    assert rep["sequences"] == 40


@pytest.mark.parametrize(
    "depth,samples,name",
    [(0, 5, "depth"), (-1, None, "depth"), (-1, 5, "depth"), (3, 0, "samples"), (3, -2, "samples")],
)
def test_den_vs_hom_rejects_vacuous_sweeps(depth, samples, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        den_vs_hom_crosscheck(builtin_quiver("A2"), depth=depth, samples=samples)


def test_rejects_non_dynkin():
    with pytest.raises(ValueError):
        GammaC(builtin_quiver("Atilde21"))
