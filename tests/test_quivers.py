import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_category import ORIENTED

from clustercat.quivers import (
    BUILTIN_QUIVER_NAMES,
    DiagramClass,
    EulerData,
    Quiver,
    _cycle_orientation_split,
    builtin_quiver,
    classify_diagram,
    coxeter_number,
    exchange_matrix,
    load_quiver_json,
    mutate_matrix,
    positive_roots,
    quiver_from_matrix,
    quiver_to_json,
)
from clustercat.reps import MonomialAlgebra, projective_dims


def test_mutation_negates_incident_row_and_column():
    b = exchange_matrix(builtin_quiver("A2"))
    assert b == ((0, 1), (-1, 0))
    assert mutate_matrix(b, 1) == ((0, -1), (1, 0))


def test_mutation_linear_a3_at_middle():
    b = exchange_matrix(builtin_quiver("A3"))
    assert b == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    b2 = mutate_matrix(b, 2)
    # arrows through vertex 2 reverse and the composite 1->3 appears
    assert b2 == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutation_is_involutive_on_examples():
    for name in ("A2", "A3", "A4", "D4", "Atilde21"):
        b = exchange_matrix(builtin_quiver(name))
        for k in range(1, len(b) + 1):
            assert mutate_matrix(mutate_matrix(b, k), k) == b


def test_mutation_rejects_bad_index():
    b = exchange_matrix(builtin_quiver("A2"))
    with pytest.raises(IndexError):
        mutate_matrix(b, 0)
    with pytest.raises(IndexError):
        mutate_matrix(b, 3)


def test_mutation_ranges_over_columns_of_an_extended_matrix():
    # A2 over principal coefficients: 2n x n, so only the n columns are
    # mutable, and the coefficient rows mutate with them
    b = ((0, 1), (-1, 0), (1, 0), (0, 1))
    assert mutate_matrix(b, 1) == ((0, -1), (1, 0), (-1, 1), (0, 1))
    assert mutate_matrix(mutate_matrix(b, 2), 2) == b
    for k in (0, 3, 4):
        with pytest.raises(IndexError, match=rf"^mutation vertex {k} out of range 1\.\.2$"):
            mutate_matrix(b, k)


skew = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
    ).map(lambda vals: _skew_from_upper(n, vals))
)


def _skew_from_upper(n, vals):
    m = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            m[i][j] = v
            m[j][i] = -v
    return tuple(tuple(row) for row in m)


@settings(max_examples=80, deadline=None)
@given(skew, st.data())
def test_mutation_involution_and_skew_symmetry(b, data):
    k = data.draw(st.integers(1, len(b)))
    b2 = mutate_matrix(b, k)
    n = len(b)
    assert all(b2[i][j] == -b2[j][i] for i in range(n) for j in range(n))
    assert mutate_matrix(b2, k) == b


def _mutate_by_formula(b, k):
    pos = lambda x: max(x, 0)
    n, kk = len(b), k - 1
    return tuple(
        tuple(
            -b[i][j]
            if kk in (i, j)
            else b[i][j] + pos(b[i][kk]) * pos(b[kk][j]) - pos(-b[i][kk]) * pos(-b[kk][j])
            for j in range(n)
        )
        for i in range(n)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.integers(-4, 4), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(lambda vals: _skew_from_upper(n, vals))
    )
)
def test_mutation_matches_written_out_formula(b):
    lists = [list(row) for row in b]
    for k in range(1, len(b) + 1):
        want = _mutate_by_formula(b, k)
        for given in (b, lists):
            out = mutate_matrix(given, k)
            assert out == want
            assert type(out) is tuple and all(type(row) is tuple for row in out)
            # row k has b_kk = 0 like the rows that are kept, yet it is negated
            assert out[k - 1] == tuple(-x for x in b[k - 1])
        assert lists == [list(row) for row in b]
        kept = [i for i, row in enumerate(b) if i != k - 1 and not row[k - 1]]
        assert all(mutate_matrix(b, k)[i] is b[i] for i in kept)


def test_acyclicity():
    assert builtin_quiver("A3").is_acyclic()
    assert builtin_quiver("Atilde21").is_acyclic()
    cycle = Quiver(3, ((1, 2), (2, 3), (3, 1)))
    assert not cycle.is_acyclic()


def test_topological_order_takes_the_smallest_ready_vertex():
    # 2 and 3 are ready at the start, and 1 waits for both
    assert Quiver(3, ((3, 1), (2, 1))).topological_order() == [2, 3, 1]
    # a vertex freed later goes before a larger one that was ready earlier
    assert Quiver(4, ((3, 1), (2, 4))).topological_order() == [2, 3, 1, 4]
    # a parallel pair frees its target once, after both arrows are taken
    assert Quiver(3, ((2, 1), (2, 1), (3, 2))).topological_order() == [3, 2, 1]
    with pytest.raises(ValueError, match="oriented cycle"):
        Quiver(3, ((1, 2), (2, 3), (3, 1))).topological_order()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_topological_order_is_the_least_one(data):
    # at every position the order takes the smallest vertex whose
    # predecessors are all placed, so module-table ids do not depend on
    # how the order is computed
    n = data.draw(st.integers(1, 7))
    perm = data.draw(st.permutations(range(1, n + 1)))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    q = Quiver(n, tuple((perm[a], perm[b]) for a, b in pairs if a < b))
    placed: set[int] = set()
    for v in q.topological_order():
        ready = [
            w for w in range(1, n + 1)
            if w not in placed and all(s in placed for s, t in q.arrows if t == w)
        ]
        assert v == min(ready)
        placed.add(v)
    assert len(placed) == n


def test_quiver_matrix_roundtrip():
    for name in ("A2", "A3", "A4", "D4", "Atilde21"):
        q = builtin_quiver(name)
        back = quiver_from_matrix(exchange_matrix(q))
        assert sorted(back.arrows) == sorted(q.arrows)
        assert exchange_matrix(back) == exchange_matrix(q)


def test_classify_diagram():
    assert classify_diagram(builtin_quiver("A3")).label == "A3"
    assert classify_diagram(builtin_quiver("A3")).kind == "dynkin"
    assert classify_diagram(builtin_quiver("D4")).label == "D4"
    tri = classify_diagram(builtin_quiver("Atilde21"))
    assert tri.kind == "affine"
    assert tri.label == "A~(2,1)"
    # the underlying diagram of an oriented cycle is still an A-tilde shape,
    # with all arrows one way around
    cycle = Quiver(3, ((1, 2), (2, 3), (3, 1)))
    assert classify_diagram(cycle).kind == "affine"
    assert classify_diagram(cycle).label == "A~(3,0)"
    square = Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    assert classify_diagram(square).label == "A~(3,1)"
    # in A~(p, q), p + q is the number of vertices: the Kronecker quiver has
    # one arrow each way round its cycle, the oriented 2-cycle two one way
    kronecker = classify_diagram(Quiver(2, ((1, 2), (1, 2))))
    assert (kronecker.kind, kronecker.label, kronecker.rank) == ("affine", "A~(1,1)", 1)
    assert classify_diagram(Quiver(2, ((1, 2), (2, 1)))).label == "A~(2,0)"


def _branched(n, b):
    """The path 1 -> ... -> n-1 with a leaf b -> n: D_n for b = n-2, E_n for b = 3."""
    return Quiver(n, tuple((i, i + 1) for i in range(1, n - 1)) + ((b, n),))


def _arms(*lengths):
    """The star with centre 1 and one arm of each given length, arrows outward."""
    arrows, n = [], 1
    for length in lengths:
        arrows += [(1 if k == 0 else n + k, n + k + 1) for k in range(length)]
        n += length
    return Quiver(n, tuple(arrows))


def _dtilde(m):
    """D~m on m + 1 vertices: the path 1 -> ... -> m-1 with leaves 2 -> m and
    m-2 -> m+1 (for m = 4 both at 2, the star with four leaves)."""
    return Quiver(m + 1, tuple((i, i + 1) for i in range(1, m - 1)) + ((2, m), (m - 2, m + 1)))


def _reversed(q):
    return Quiver(q.n, tuple((t, s) for s, t in q.arrows))


def _class_of(q):
    c = classify_diagram(q)
    return c.kind, c.label, c.rank


# The shape classifier that classify_diagram replaced, kept unchanged as the
# oracle: edge multiplicities, branch lengths and a table of arms.


def _edge_multiplicities(q: Quiver) -> dict[tuple[int, int], int]:
    edges: dict[tuple[int, int], int] = {}
    for s, t in q.arrows:
        key = (min(s, t), max(s, t))
        edges[key] = edges.get(key, 0) + 1
    return edges


def _branch_lengths(adj: dict[int, list[int]], center: int) -> list[int]:
    lengths = []
    for start in adj[center]:
        ln = 1
        prev, cur = center, start
        while len(adj[cur]) == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            ln += 1
        if len(adj[cur]) > 2:
            raise ValueError("not a simple branch")
        lengths.append(ln)
    return sorted(lengths)


def _shape_classifier(q: Quiver) -> DiagramClass:
    """Classify the underlying diagram as Dynkin ADE, affine, or other.

    Raises ValueError on a disconnected quiver.
    """
    if not q.is_connected():
        raise ValueError("diagram is disconnected")
    n = q.n
    edges = _edge_multiplicities(q)
    if n == 1 and not edges:
        return DiagramClass("dynkin", "A1", 1)
    multi = [e for e, m in edges.items() if m > 1]
    if multi:
        if n == 2 and len(edges) == 1 and edges[multi[0]] == 2:
            p, qq = _cycle_orientation_split(q)
            return DiagramClass("affine", f"A~({p},{qq})", 1)
        return DiagramClass("other", "other", n)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for s, t in edges:
        adj[s].append(t)
        adj[t].append(s)
    num_edges = len(edges)
    if num_edges == n:
        # connected with |E| = |V| and all degrees 2: a single cycle
        if all(len(adj[v]) == 2 for v in adj):
            p, qq = _cycle_orientation_split(q)
            return DiagramClass("affine", f"A~({p},{qq})", n - 1)
        return DiagramClass("other", "other", n)
    if num_edges != n - 1:
        return DiagramClass("other", "other", n)
    # tree from here on
    big = [v for v in adj if len(adj[v]) >= 3]
    if not big:
        return DiagramClass("dynkin", f"A{n}", n)
    if len(big) == 1:
        center = big[0]
        if len(adj[center]) == 4:
            if n == 5 and all(len(adj[v]) == 1 for v in adj if v != center):
                return DiagramClass("affine", "D~4", 4)
            return DiagramClass("other", "other", n)
        if len(adj[center]) > 4:
            return DiagramClass("other", "other", n)
        try:
            branches = tuple(_branch_lengths(adj, center))
        except ValueError:
            return DiagramClass("other", "other", n)
        if branches[0] == 1 and branches[1] == 1:
            return DiagramClass("dynkin", f"D{n}", n)
        table = {
            (1, 2, 2): ("dynkin", "E6"),
            (1, 2, 3): ("dynkin", "E7"),
            (1, 2, 4): ("dynkin", "E8"),
            (2, 2, 2): ("affine", "E~6"),
            (1, 3, 3): ("affine", "E~7"),
            (1, 2, 5): ("affine", "E~8"),
        }
        if branches in table:
            kind, label = table[branches]
            return DiagramClass(kind, label, n if kind == "dynkin" else n - 1)
        return DiagramClass("other", "other", n)
    if len(big) == 2 and all(len(adj[v]) == 3 for v in big):
        # affine D~: both branch vertices carry two leaf branches of length 1
        ok = True
        for center in big:
            leaf_nbrs = [w for w in adj[center] if len(adj[w]) == 1]
            if len(leaf_nbrs) < 2:
                ok = False
        if ok and n >= 6:
            return DiagramClass("affine", f"D~{n - 1}", n - 1)
        return DiagramClass("other", "other", n)
    return DiagramClass("other", "other", n)


def _assert_shape_oracle_agrees(q):
    oracle = _shape_classifier(q)
    assert _class_of(q) == (oracle.kind, oracle.label, oracle.rank), q


def _connected_graphs(n, multiplicities):
    """Every connected multigraph on vertices 1..n whose edge i < j has one
    of the given multiplicities, as arrows i -> j."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for counts in itertools.product(multiplicities, repeat=len(pairs)):
        q = Quiver(n, tuple(pair for pair, m in zip(pairs, counts) for _ in range(m)))
        if q.is_connected():
            yield q


def test_tits_form_agrees_with_the_shape_oracle_on_small_multigraphs():
    for n in range(1, 5):
        for q in _connected_graphs(n, range(4)):
            _assert_shape_oracle_agrees(q)
            _assert_shape_oracle_agrees(_reversed(q))


def test_tits_form_agrees_with_the_shape_oracle_on_simple_graphs():
    rng = random.Random(5)
    for n in (5, 6):
        for q in _connected_graphs(n, range(2)):
            _assert_shape_oracle_agrees(Quiver(n, tuple(a[:: rng.choice((1, -1))] for a in q.arrows)))


def test_tits_form_agrees_with_the_shape_oracle_on_every_oriented_cycle():
    for n in range(2, 7):
        edges = [(i, i % n + 1) for i in range(1, n + 1)]
        for flips in itertools.product((1, -1), repeat=n):
            _assert_shape_oracle_agrees(Quiver(n, tuple(e[::f] for e, f in zip(edges, flips))))


def _named_families():
    """A, D and E-series trees, D~ trees, stars, T(3,3,k) and linearly
    oriented cycles, up to 12 vertices."""
    for n in range(1, 13):
        yield Quiver(n, tuple((i, i + 1) for i in range(1, n)))
        yield _arms(*[1] * (n - 1))
        if n >= 2:
            yield Quiver(n, tuple((i, i % n + 1) for i in range(1, n + 1)))
        if n >= 4:
            yield _branched(n, n - 2)
        if n >= 5:
            yield _dtilde(n - 1)
        if n >= 6:
            yield _branched(n, 3)
        if n >= 7:
            yield _arms(2, 2, n - 5)


def test_tits_form_agrees_with_the_shape_oracle_on_named_families():
    for q in _named_families():
        _assert_shape_oracle_agrees(q)
        _assert_shape_oracle_agrees(_reversed(q))


AFFINE_TREES = [pytest.param(_dtilde(m), f"D~{m}", id=f"D~{m}") for m in range(4, 10)] + [
    pytest.param(_arms(2, 2, 2), "E~6", id="E~6"),
    pytest.param(_arms(1, 3, 3), "E~7", id="E~7"),
    pytest.param(_arms(1, 2, 5), "E~8", id="E~8"),
]


@pytest.mark.parametrize("q,label", AFFINE_TREES)
def test_affine_trees_are_named(q, label):
    for oriented in (q, _reversed(q)):
        assert _class_of(oriented) == ("affine", label, q.n - 1)


WILD = {
    "3-Kronecker": Quiver(2, ((1, 2),) * 3),
    "star-5": _arms(1, 1, 1, 1, 1),
    "T(2,3,7)": _arms(1, 2, 6),
    # det C = 21 > 0, yet the minor on vertices 1-3 is -10
    "det-21": Quiver(4, ((1, 4),) * 3 + ((2, 3),) * 3 + ((3, 4),)),
}


@pytest.mark.parametrize("q", WILD.values(), ids=WILD)
def test_wild_shapes_are_other(q):
    assert _class_of(q) == ("other", "other", q.n)


@st.composite
def connected_quivers(draw):
    # a random spanning tree, each vertex v > 1 joined to an earlier one, plus
    # extra arrows (a repeated pair is a parallel arrow), randomly oriented
    n = draw(st.integers(1, 6))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if n > 1:
        vertex = st.integers(1, n)
        extra = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(extra, max_size=3))
    return Quiver(n, tuple(e[:: draw(st.sampled_from((1, -1)))] for e in edges))


@settings(max_examples=200, deadline=None)
@given(connected_quivers(), st.data())
def test_classification_is_invariant_under_relabelling(q, data):
    perm = data.draw(st.permutations(range(1, q.n + 1)))
    relabelled = Quiver(q.n, tuple((perm[s - 1], perm[t - 1]) for s, t in q.arrows))
    assert _class_of(relabelled) == _class_of(q)


def test_positive_root_counts():
    assert len(positive_roots(builtin_quiver("A2"))) == 3
    assert len(positive_roots(builtin_quiver("A3"))) == 6
    assert len(positive_roots(builtin_quiver("A4"))) == 10
    assert len(positive_roots(builtin_quiver("D4"))) == 12
    # n(n+1)/2 for A_n, n(n-1) for D_n, and 36, 63, 120 for E6, E7, E8
    for n in range(1, 9):
        a_n = Quiver(n, tuple((i, i + 1) for i in range(1, n)))
        assert len(positive_roots(a_n)) == n * (n + 1) // 2
    for n in range(4, 9):
        assert classify_diagram(_branched(n, n - 2)).label == f"D{n}"
        assert len(positive_roots(_branched(n, n - 2))) == n * (n - 1)
    for n, count in ((6, 36), (7, 63), (8, 120)):
        assert classify_diagram(_branched(n, 3)).label == f"E{n}"
        assert len(positive_roots(_branched(n, 3))) == count


def simple_reflection(q: Quiver, d, k: int) -> tuple[int, ...]:
    """Simple reflection s_k of the Weyl group of the underlying graph:
    d_k becomes the sum of d_j over the edges k - j, minus d_k."""
    neighbours = [t if s == k else s for s, t in q.arrows if k in (s, t)]
    dk = sum(d[j - 1] for j in neighbours) - d[k - 1]
    return tuple(dk if j == k - 1 else x for j, x in enumerate(d))


def _full_reflection_closure(q):
    """Positive roots as the closure of the simple roots under every simple
    reflection, negative roots included, then restricted to the positive."""
    n = q.n
    seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        d = frontier.pop()
        for k in range(1, n + 1):
            r = simple_reflection(q, d, k)
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return frozenset(d for d in seen if all(x >= 0 for x in d) and any(d))


def _dynkin_family():
    """A1-A8, D4-D8 and E6-E8, each oriented as built and with every arrow reversed."""
    built = [Quiver(n, tuple((i, i + 1) for i in range(1, n))) for n in range(1, 9)]
    built += [_branched(n, n - 2) for n in range(4, 9)] + [_branched(n, 3) for n in (6, 7, 8)]
    for q in built:
        label = classify_diagram(q).label
        yield pytest.param(q, id=label)
        yield pytest.param(Quiver(q.n, tuple((t, s) for s, t in q.arrows)), id=f"{label}-reversed")


@pytest.mark.parametrize("q", _dynkin_family())
def test_positive_roots_equal_the_full_reflection_closure(q):
    assert positive_roots(q) == _full_reflection_closure(q)


@pytest.mark.parametrize("q", _dynkin_family())
def test_coxeter_number_counts_the_positive_roots(q):
    assert len(positive_roots(q)) * 2 == q.n * coxeter_number(classify_diagram(q))


def test_coxeter_number_refuses_non_dynkin_shapes():
    for q in (builtin_quiver("Atilde21"), Quiver(2, ((1, 2), (1, 2)))):
        with pytest.raises(ValueError):
            coxeter_number(classify_diagram(q))


def _reflection_product(q, order):
    """The matrix whose column j is e_j reflected at order[0] first."""
    columns = []
    for j in range(q.n):
        d = tuple(int(i == j) for i in range(q.n))
        for k in order:
            d = simple_reflection(q, d, k)
        columns.append(d)
    return tuple(zip(*columns))


ORIENTATIONS = [pytest.param(q, id=name) for name, q in ORIENTED.items()]


@pytest.mark.parametrize("q", [*_dynkin_family(), *ORIENTATIONS])
def test_coxeter_matrices_are_reflection_products(q):
    # Phi is the product of the simple reflections sinks first, Phi^-1
    # sources first (Bernstein-Gelfand-Ponomarev)
    ed = EulerData(q)
    order = q.topological_order()
    assert ed.matrix == _reflection_product(q, order[::-1])
    assert ed.inverse_matrix == _reflection_product(q, order)


@pytest.mark.parametrize(
    "q", [*_dynkin_family(), *ORIENTATIONS, pytest.param(builtin_quiver("Atilde21"), id="Atilde21")]
)
def test_projectives_count_paths(q):
    assert EulerData(q).projectives == tuple(projective_dims(q, i) for i in range(1, q.n + 1))


def test_positive_roots_refuse_non_dynkin_shapes():
    for q in (builtin_quiver("Atilde21"), Quiver(2, ((1, 2), (1, 2))), _branched(9, 3)):
        with pytest.raises(ValueError):
            positive_roots(q)


def test_positive_roots_a2_explicit():
    assert positive_roots(builtin_quiver("A2")) == frozenset(
        {(1, 0), (0, 1), (1, 1)}
    )


def test_euler_form_examples():
    ed = EulerData(builtin_quiver("A2"))
    assert ed.euler_form((1, 0), (0, 1)) == -1
    assert ed.euler_form((0, 1), (1, 0)) == 0
    assert ed.euler_form((1, 0), (1, 0)) == 1
    assert ed.euler_form((1, 1), (1, 1)) == 1


def test_euler_form_null_vector_in_affine_type():
    ed = EulerData(builtin_quiver("Atilde21"))
    delta = (1, 1, 1)
    assert ed.euler_form(delta, delta) == 0


def test_coxeter_transform_a2():
    ed = EulerData(builtin_quiver("A2"))
    # on 1->2: tau S1 = S2 at the level of dimension vectors
    assert ed.coxeter_transform((1, 0)) == (0, 1)
    # projective P1 = (1,1) leaves the positive cone under the transform
    out = ed.coxeter_transform((1, 1))
    assert any(x < 0 for x in out)


NAMED = [builtin_quiver(name) for name in BUILTIN_QUIVER_NAMES] + [
    _branched(6, 4),
    _branched(6, 3),
    _branched(7, 3),
    _branched(8, 3),
]


@st.composite
def acyclic_quivers(draw):
    # every arrow goes forward in a shuffled vertex order; a repeated pair is
    # a parallel arrow, and vertices may be left disconnected
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9))
    return Quiver(n, tuple((order[min(a, b)], order[max(a, b)]) for a, b in pairs if a != b))


def _assert_coxeter_matrix(ed):
    # <e, Phi d> = -<d, e> for all d, e says E Phi = -E^T, which fixes Phi
    # because E is invertible; and Phi^-1 Phi = 1
    em, phi, inv = ed.euler_matrix, ed.matrix, ed.inverse_matrix
    n = len(em)
    for i in range(n):
        for j in range(n):
            assert sum(em[i][k] * phi[k][j] for k in range(n)) == -em[j][i]
            assert sum(inv[i][k] * phi[k][j] for k in range(n)) == int(i == j)


def test_coxeter_matrix_of_named_quivers():
    for q in NAMED:
        _assert_coxeter_matrix(EulerData(q))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMED) | acyclic_quivers(), st.data())
def test_coxeter_adjoint_identity(q, data):
    # <e, Phi d> = -<d, e> and the form is Phi-invariant
    ed = EulerData(q)
    _assert_coxeter_matrix(ed)
    vectors = st.tuples(*[st.integers(-5, 5)] * q.n)
    d, e = data.draw(vectors), data.draw(vectors)
    pd = ed.coxeter_transform(d)
    assert ed.euler_form(e, pd) == -ed.euler_form(d, e)
    assert ed.euler_form(pd, ed.coxeter_transform(e)) == ed.euler_form(d, e)
    assert ed.inverse_coxeter_transform(pd) == d


def test_quiver_json_roundtrip(tmp_path):
    q = builtin_quiver("D4")
    data = quiver_to_json(q, relations=((0, 1),))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    q2, rels = load_quiver_json(path)
    assert q2.arrows == q.arrows
    assert rels == ((0, 1),)


def test_deeply_nested_quiver_json_raises_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"vertices": 2, "arrows": ' + "[" * 200_000 + "]" * 200_000 + "}")
    with pytest.raises(ValueError, match="nested too deeply"):
        load_quiver_json(path)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=2)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_ENTRY = st.integers(-1, 5) | _JSON_SCALARS
_ARROW = st.lists(_ENTRY, min_size=2, max_size=2) | st.lists(_ENTRY, max_size=3)
_QUIVER_LIKE = st.fixed_dictionaries(
    {"vertices": st.integers(-1, 4) | _JSON, "arrows": st.lists(_ARROW, max_size=3) | _JSON},
    optional={"relations": st.lists(st.lists(_ENTRY, max_size=2), max_size=2) | _JSON},
)


@st.composite
def _valid_quiver_json(draw):
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4))
    data = {"vertices": n, "arrows": [[s, t] for s, t in pairs if s != t]}
    if data["arrows"]:
        index = st.integers(0, len(data["arrows"]) - 1)
        data["relations"] = draw(st.lists(st.lists(index, max_size=2), max_size=2))
    return data


# a bare string is a file path to load_quiver_json, not a JSON value
@settings(max_examples=300, deadline=None)
@given(_valid_quiver_json() | _QUIVER_LIKE | _JSON.filter(lambda v: not isinstance(v, str)))
def test_quiver_json_round_trips_or_raises_value_error(data):
    try:
        q, rels = load_quiver_json(data)
    except ValueError:
        return
    out = quiver_to_json(q, rels)
    assert load_quiver_json(out) == (q, rels)
    # nothing was coerced: a float, bool or string never reads as an integer
    expected = {"vertices": data["vertices"], "arrows": data["arrows"]}
    if data.get("relations"):
        expected["relations"] = data["relations"]
    assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_quiver_json_rejects_bad_relation_index():
    with pytest.raises(ValueError):
        load_quiver_json({"vertices": 2, "arrows": [[1, 2]], "relations": [[5]]})


def test_quiver_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Quiver(2, ((1, 3),))


@pytest.mark.parametrize(
    "relations,message",
    [([[0]], "two or more known"), ([[0, 1]], "not a composable path"), ([[2, 3]], "known arrows")],
)
def test_quiver_json_relations_are_checked_as_the_algebra_checks_them(relations, message):
    data = {"vertices": 4, "arrows": [[1, 2], [1, 3], [3, 4]], "relations": relations}
    with pytest.raises(ValueError, match=message):
        load_quiver_json(data)
    q = Quiver(4, ((1, 2), (1, 3), (3, 4)))
    with pytest.raises(ValueError, match=message):
        MonomialAlgebra(q, tuple(map(tuple, relations)))
    assert load_quiver_json({**data, "relations": [[1, 2]]})[1] == ((1, 2),)
