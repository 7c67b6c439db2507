import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_category import ORIENTED

from clustercat.quivers import (
    BUILTIN_QUIVER_NAMES,
    EulerData,
    Quiver,
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
