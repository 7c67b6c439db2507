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

import dataclasses
import itertools

import pytest

from clustercat.category import (
    CategorifiedSeed,
    CObject,
    CVertex,
    GammaC,
    MInShiftedT,
    MultipleComplements,
    NoComplement,
    den_vs_hom_crosscheck,
    dim_vector_mod_B,
    enumerate_tilting_objects,
    initial_seed_c,
    is_compatible,
    is_tilting_c,
    lemma6_check,
    mutate_tilting,
    shifted_initial_seed_c,
    theorem1_injectivity,
    walk_tilting,
)
from clustercat.quivers import Quiver, builtin_quiver
from clustercat.reps import (
    ext1_dim,
    hom,
    indecomposable_from_root,
    projective_dims,
    tau_inverse,
)


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


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_hom_table_matches_module_oracle(name):
    q = builtin_quiver(name)
    g = GammaC(q)
    for x in g.vertices:
        for y in g.vertices:
            assert g.hom_c_dim(x, y) == oracle_hom_c(q, x, y), (x, y)


@pytest.mark.parametrize("name,count", [("A2", 5), ("A3", 9), ("A4", 14), ("D4", 16)])
def test_vertex_counts(name, count):
    g = GammaC(builtin_quiver(name))
    assert len(g.vertices) == count


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_serre_duality_symmetry(name):
    g = GammaC(builtin_quiver(name))
    for x in g.vertices:
        for y in g.vertices:
            assert g.ext1_c_dim(x, y) == g.ext1_c_dim(y, x)


def test_almost_split_self_extension():
    g = GammaC(builtin_quiver("A3"))
    for x in g.vertices:
        assert g.ext1_c_dim(x, g.tau[x]) == 1


def test_tau_bijections():
    g = GammaC(builtin_quiver("A3"))
    assert set(g.tau) == set(g.vertices)
    assert set(g.tau.values()) == set(g.vertices)
    for x in g.vertices:
        assert g.tau_inv[g.tau[x]] == x


def test_shift_is_tau_of_projective():
    g = GammaC(builtin_quiver("A3"))
    for i in (1, 2, 3):
        assert g.tau[g.proj_vertex[i]] == g.shift_obj[i]


def brute_force_tilting_count(g):
    verts = sorted(g.vertices, key=lambda v: v.sort_key())
    n = g.quiver.n
    count = 0
    for combo in itertools.combinations(verts, n):
        if all(
            g.ext1_c_dim(a, b) == 0
            for a, b in itertools.combinations_with_replacement(combo, 2)
        ):
            count += 1
    return count


@pytest.mark.parametrize("name,count", [("A2", 5), ("A3", 14), ("D4", 50)])
def test_tilting_object_counts_two_routes(name, count):
    g = GammaC(builtin_quiver(name))
    reached = enumerate_tilting_objects(g)
    assert len(reached) == count
    assert brute_force_tilting_count(g) == count
    start = initial_seed_c(g)
    assert start.tilting_key in reached
    assert reached[start.tilting_key] == ()


@pytest.mark.parametrize("name", ["A4", "D4", "D6", "E6"])
def test_int_tables_match_vertex_queries(name):
    g = GammaC(QUIVERS[name])
    assert [g.index[v] for v in g.vertices] == list(range(len(g.vertices)))
    for x, vx in enumerate(g.vertices):
        assert g.vertices[g.tau_i[x]] == g.tau[vx]
        for y, vy in enumerate(g.vertices):
            assert g.hom_i[x][y] == g.hom_c_dim(vx, vy)
            ext_free = g.ext1_c_dim(vx, vy) == 0 and g.ext1_c_dim(vy, vx) == 0
            assert bool(g.ext_free[x] >> y & 1) == ext_free, (vx, vy)


def brute_force_partner(g, seed, k):
    """Exchange partner of summand k by scanning every indecomposable for one
    that is rigid and ext-free with the other summands, with the middle terms
    read off the matrix column; the route mutate_tilting replaced."""
    n = g.quiver.n
    tk = seed.summands[k - 1]
    others = tuple(v for i, v in enumerate(seed.summands) if i != k - 1)
    found = [
        cand
        for cand in g.vertices
        if cand != tk
        and cand not in others
        and not g.ext1_c_dim(cand, cand)
        and all(not g.ext1_c_dim(cand, o) and not g.ext1_c_dim(o, cand) for o in others)
    ]
    col = [seed.b[i][k - 1] for i in range(n)]
    e = CObject.of((seed.summands[i], col[i]) for i in range(n) if col[i] > 0)
    e_prime = CObject.of((seed.summands[i], -col[i]) for i in range(n) if col[i] < 0)
    return found, e, e_prime


@pytest.mark.parametrize("name", ["A4", "D4", "D6"])
def test_mask_partner_matches_brute_force_scan(name):
    g = GammaC(QUIVERS[name])
    edges = 0
    for seed, k, nxt, xd in walk_tilting(g):
        found, e, e_prime = brute_force_partner(g, seed, k)
        assert found == [xd.tk_star], (seed.summands, k)
        assert (xd.k, xd.tk, xd.e, xd.e_prime) == (k, seed.summands[k - 1], e, e_prime)
        assert g.ext1_c_dim(xd.tk, xd.tk_star) == 1
        assert nxt.summands[k - 1] == xd.tk_star
        assert nxt.summands[:k - 1] + nxt.summands[k:] == seed.summands[:k - 1] + seed.summands[k:]
        edges += 1
    assert edges == len(enumerate_tilting_objects(g)) * g.quiver.n


def test_walker_expands_each_tilting_object_once():
    g = GammaC(builtin_quiver("D4"))
    edges = list(walk_tilting(g))
    expanded = [seed for seed, k, _, _ in edges if k == 1]
    assert [k for _, k, _, _ in edges] == [1, 2, 3, 4] * len(expanded)
    assert expanded[0] == initial_seed_c(g)
    assert len({s.tilting_key for s in expanded}) == len(expanded) == 50
    assert all(is_tilting_c(g, CObject.of_vertices(*s.summands)) for s in expanded)


def test_non_tilting_seeds_raise():
    # on seeds that are not tilting objects, the checks that guard the mask
    # route fire exactly where the brute-force scan says they must
    g = GammaC(builtin_quiver("D4"))
    b = initial_seed_c(g).b
    raised = set()
    for combo in itertools.combinations(g.vertices, 4):
        seed = CategorifiedSeed(combo, b)
        found, _, _ = brute_force_partner(g, seed, 4)
        if not found:
            error = NoComplement
        elif len(found) > 1:
            error = MultipleComplements
        elif g.ext1_c_dim(combo[3], found[0]) != 1:
            error = AssertionError
        else:
            assert mutate_tilting(g, seed, 4)[1].tk_star == found[0]
            continue
        with pytest.raises(error):
            mutate_tilting(g, seed, 4)
        raised.add(error)
    assert raised == {NoComplement, MultipleComplements, AssertionError}
    p1 = g.proj_vertex[1]
    with pytest.raises(ValueError):
        mutate_tilting(g, CategorifiedSeed((p1, p1, g.proj_vertex[3], g.proj_vertex[4]), b), 2)


def test_is_tilting_c():
    g = GammaC(builtin_quiver("A2"))
    good = CObject.of_vertices(g.proj_vertex[1], g.proj_vertex[2])
    assert is_tilting_c(g, good)
    bad = CObject.of_vertices(g.proj_vertex[1], g.shift_obj[1])
    assert not is_tilting_c(g, bad)


def test_mutation_exchange_a2():
    # from the projective seed of 1->2, exchanging position 2 replaces P2
    # by the simple at 1 through the triangle with middle term P1
    g = GammaC(builtin_quiver("A2"))
    seed = initial_seed_c(g)
    new, xd = mutate_tilting(g, seed, 2)
    assert xd.tk == CVertex.module((0, 1))
    assert xd.tk_star == CVertex.module((1, 0))
    assert xd.e.summands == (CVertex.module((1, 1)),)
    assert xd.e_prime.is_zero
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
            for m in g.vertices:
                assert is_compatible(g, m, xd)
                assert lemma6_check(g, m, xd)
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
    wrong = dataclasses.replace(xd, e=CObject.of_vertices(g.proj_vertex[3]))
    assert any(not is_compatible(g, m, wrong) for m in g.vertices)


def test_dim_vector_mod_b_on_projective_seed():
    g = GammaC(builtin_quiver("A3"))
    seed = initial_seed_c(g)
    for m in g.vertices:
        if m.is_module:
            assert dim_vector_mod_B(g, seed, m) == m.dims
        else:
            with pytest.raises(MInShiftedT):
                dim_vector_mod_B(g, seed, m)


def test_dim_vector_mod_b_against_hom_route():
    # against the shifted seed: coordinates are hom dimensions from the seed
    g = GammaC(builtin_quiver("A3"))
    shifted = shifted_initial_seed_c(g)
    for m in g.vertices:
        if m in set(shifted.summands):
            continue
        if any(m == g.tau[t] for t in shifted.summands):
            continue
        d = dim_vector_mod_B(g, shifted, m)
        assert d == tuple(g.hom_c_dim(t, m) for t in shifted.summands)


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


@pytest.mark.parametrize(
    "quiver,count,cases",
    [(D5, 182, 18_200), (D6, 672, 120_960), (E6, 833, 179_928), (E7, 4160, 1_834_560)],
    ids=["D5", "D6", "E6", "E7"],
)
def test_theorem1_finite_type_counts(quiver, count, cases):
    # Fomin-Zelevinsky cluster counts; every tilting object and every one of
    # its n mutations checks the objects outside its shift
    rep = theorem1_injectivity(quiver)
    assert rep["tilting_count"] == count
    assert rep["injective_everywhere"] is True
    assert rep["failures"] == []
    assert rep["propagation_cases"] == cases == count * quiver.n * (rep["vertices"] - quiver.n)


@pytest.mark.slow
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


def test_den_vs_hom_random_a3():
    rep = den_vs_hom_crosscheck(builtin_quiver("A3"), depth=6, samples=40, rng_seed=5)
    assert rep["ok"] is True
    assert rep["sequences"] == 40


def test_rejects_non_dynkin():
    with pytest.raises(ValueError):
        GammaC(builtin_quiver("Atilde21"))
