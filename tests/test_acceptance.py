"""End-to-end acceptance gate.

Each criterion below runs the full check at its stated runtime budget and
prints exactly one PASS or FAIL line; run with -s to see the lines live:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from test_category import (
    brute_force_tilting_count,
    ext_c,
    initial_seed_c,
    lemma6_check,
    mutate_tilting,
    oracle_hom_c,
    tilting_key,
)
from test_reps import all_indecomposables, direct_sum

from clustercat.bound import counterexample_report
from clustercat.category import (
    GammaC,
    den_vs_hom_crosscheck,
    is_compatible,
    theorem1_injectivity,
)
from clustercat.laurent import (
    den_injectivity_check,
    explore_exchange_graph,
    initial_seed,
    seed_mutate,
)
from clustercat.quivers import builtin_quiver, euler_data, exchange_matrix, mutate_matrix
from clustercat.reps import ext1_dim, hom
from clustercat.tilting import (
    _directed_indecomposables,
    complement_and_sequence,
    enumerate_tilting_modules,
    prop8_descent,
)

EXPECTED_CLUSTERS = {"A2": 5, "A3": 14, "A4": 42, "D4": 50}


def run_criterion(n, description, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except Exception as exc:
        elapsed = time.perf_counter() - t0
        print(f"FAIL criterion {n}: {description} "
              f"[{elapsed:.2f}s] {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        print(f"FAIL criterion {n}: {description} "
              f"[{elapsed:.2f}s exceeds {budget:.0f}s budget]")
        raise AssertionError(f"criterion {n} exceeded the {budget}s budget")
    print(f"PASS criterion {n}: {description} [{elapsed:.2f}s, budget {budget:.0f}s]")


def test_criterion_1_rigidity_counterexample():
    def body():
        rep = counterexample_report()
        assert rep["dims_M"] == [1, 1, 1] and rep["dims_N"] == [1, 1, 1]
        assert rep["ext1_M_M"] == 0 and rep["ext1_N_N"] == 0
        assert rep["isomorphic"] is False
        assert rep["hom_M_N"] == 1 and rep["hom_N_M"] == 1
        assert rep["lift_self_extension"] == 1 + 1

    run_criterion(
        1, "two non-isomorphic rigid modules share (1,1,1) and lift non-rigidly",
        1.0, body,
    )


def test_criterion_2_dimension_vectors_determine_objects():
    def body():
        for name, expected in EXPECTED_CLUSTERS.items():
            rep = theorem1_injectivity(builtin_quiver(name))
            sym = explore_exchange_graph(exchange_matrix(builtin_quiver(name)))
            assert rep["tilting_count"] == expected, name
            assert sym.cluster_count == expected, name
            assert not sym.truncated
            assert rep["injective_everywhere"] is True, rep["failures"]
            assert rep["propagation_cases"] > 0

    run_criterion(
        2, "dimension-vector maps injective for every tilting object, "
           "categorical and symbolic cluster counts 5/14/42/50 agree",
        60.0, body,
    )


def test_criterion_3_denominators_equal_hom_dimensions():
    def body():
        q = builtin_quiver("A3")
        rep = den_vs_hom_crosscheck(q)
        assert rep["ok"] is True, rep["mismatches"][:3]
        assert (rep["tilting_objects"], rep["edges"], rep["paired"]) == (14, 42, 9)

        # the 120 seeded sequences of length 1 to 8 that the sampled check
        # ran, replayed step by step with the one-step oracle
        g = GammaC(q)
        rng = random.Random(0)
        checks = 0
        for _ in range(120):
            seq = [rng.randint(1, 3) for _ in range(rng.randint(1, 8))]
            ls, summands, b = initial_seed(exchange_matrix(q)), g.shift_i, exchange_matrix(q)
            for k in seq:
                ls, (summands, b, _) = seed_mutate(ls, k), mutate_tilting(g, summands, b, k)
                assert ls.b == b
                for x, t in zip(ls.cluster, summands, strict=True):
                    v = g.vertices[t]
                    if v.is_module:
                        want = tuple(g.hom_i[p][t] for p in g.proj_i)
                    else:
                        want = tuple(-(j == v.shift_vertex) for j in (1, 2, 3))
                    assert x.denominator_vector() == want, (seq, v.render())
                    checks += 1
        assert checks == 1602

    run_criterion(
        3, "den(X) = hom-vector over every A3 exchange from P[1], and in "
           "lockstep over 120 seeded sequences, initial variables at -e_j",
        30.0, body,
    )


def test_criterion_4_denominators_distinct_in_finite_type():
    def body():
        for name in ("A2", "A3", "A4", "D4"):
            q = builtin_quiver(name)
            base = explore_exchange_graph(exchange_matrix(q))
            for bmat in sorted({s.b for s in base.seeds}):
                res = explore_exchange_graph(bmat, max_depth=base.cluster_count)
                assert not res.truncated, name
                assert res.cluster_count == base.cluster_count, name
                chk = den_injectivity_check(res.variables)
                assert chk.ok, (name, chk.witness)

    run_criterion(
        4, "denominator vectors pairwise distinct in every cluster of A2-A4, D4",
        60.0, body,
    )


def test_criterion_5_denominators_distinct_in_bounded_affine_sweep():
    def body():
        res = explore_exchange_graph(
            exchange_matrix(builtin_quiver("Atilde21")), max_depth=6
        )
        assert res.truncated is True  # the cutoff must be visible
        chk = den_injectivity_check(res.variables)
        assert chk.ok, chk.witness

    run_criterion(
        5, "affine triangle to depth 6: all variables distinct by denominator, "
           "truncation flagged",
        30.0, body,
    )


def test_criterion_6_tilting_descent_terminates():
    def body():
        for name in ("A3", "D4"):
            q = builtin_quiver(name)
            bound = len(all_indecomposables(q))
            for t in enumerate_tilting_modules(q):
                rep = prop8_descent(q, t)
                assert rep["step_count"] <= bound
                sizes = rep["torsion_sizes"]
                assert all(a > b for a, b in zip(sizes, sizes[1:]))
                assert rep["terminal_injectives"] is True
                ordered = _directed_indecomposables(q).ordered
                cur = t
                for step in rep["steps"]:
                    k = step["replaced_index"]
                    t0 = cur.dims[k]
                    cur, e = complement_and_sequence(q, cur, k)
                    total = [a + b for a, b in zip(t0, cur.dims[k])]
                    assert total == [sum(c) for c in zip(*(ordered[j].dims for j in e))]
                    assert total == step["dim_e"]

    run_criterion(
        6, "every linear-A3 and D4 tilting module descends to the injectives "
           "with shrinking torsion and additive middle terms",
        30.0, body,
    )


def test_criterion_7_exchange_compatibility_suite():
    def body():
        for name in ("A2", "A3"):
            g = GammaC(builtin_quiver(name))
            rep = theorem1_injectivity(builtin_quiver(name))
            assert rep["injective_everywhere"] is True
            stack = [initial_seed_c(g)]
            visited = {tilting_key(g.proj_i)}
            while stack:
                summands, b = stack.pop()
                for k in range(1, g.quiver.n + 1):
                    nxt, nxt_b, xd = mutate_tilting(g, summands, b, k)
                    ids = range(len(g.vertices))
                    for x, agree in zip(ids, lemma6_check(g, xd), strict=True):
                        assert is_compatible(g, x, xd), (name, k, g.vertices[x])
                        assert agree, (name, k, g.vertices[x])
                    if tilting_key(nxt) not in visited:
                        visited.add(tilting_key(nxt))
                        stack.append((nxt, nxt_b))

    run_criterion(
        7, "compatibility and its dual agree at every vertex of every exchange "
           "pair in A2 and A3; mutation alternative holds throughout",
        30.0, body,
    )


def test_criterion_8_oracle_equivalence_suite():
    def body():
        # the category's hom table vs module-theoretic recomputation
        q3 = builtin_quiver("A3")
        g3 = GammaC(q3)
        for x, vx in enumerate(g3.vertices):
            for y, vy in enumerate(g3.vertices):
                assert g3.hom_i[x][y] == oracle_hom_c(q3, vx, vy)
        assert brute_force_tilting_count(g3) == 14

        # hom - ext matches the Euler form on random direct sums
        rng = random.Random(0)
        inds = all_indecomposables(q3)
        ed = euler_data(q3)
        for _ in range(200):
            m = inds[rng.randrange(len(inds))]
            n = inds[rng.randrange(len(inds))]
            for _ in range(rng.randrange(3)):
                m = direct_sum(m, inds[rng.randrange(len(inds))])
            e = ext1_dim(m, n)
            assert e >= 0
            assert hom(m, n).dim - e == ed.euler_form(m.dims, n.dims)

        # symmetric extensions, exhaustively
        for name in ("A3", "D4"):
            g = GammaC(builtin_quiver(name))
            for x in range(len(g.vertices)):
                for y in range(len(g.vertices)):
                    assert ext_c(g, x, y) == ext_c(g, y, x)

        # mutation involutivity on matrices and on full seeds
        b = exchange_matrix(builtin_quiver("D4"))
        for k in (1, 2, 3, 4):
            assert mutate_matrix(mutate_matrix(b, k), k) == b
        s = initial_seed(exchange_matrix(q3))
        for k in (1, 2, 3, 2):
            assert seed_mutate(seed_mutate(s, k), k).cluster == s.cluster
            s = seed_mutate(s, k)

        # the Laurent phenomenon as an executable invariant: exact division
        # never fails along 1000 random walks
        names = ("A2", "A3", "A4", "D4", "Atilde21")
        for i in range(1000):
            name = names[i % len(names)]
            bq = exchange_matrix(builtin_quiver(name))
            walk = initial_seed(bq)
            for _ in range(rng.randint(1, 12)):
                walk = seed_mutate(walk, rng.randint(1, len(bq)))

    run_criterion(
        8, "category homs match module theory, ext stays Euler-consistent and "
           "symmetric, mutation involutive, 1000 walks divide exactly",
        60.0, body,
    )
