import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustercat import laurent
from clustercat.laurent import (
    DivisionNotExact,
    LaurentPoly,
    den_injectivity_check,
    explore_exchange_graph,
    initial_seed,
    seed_mutate,
)
from clustercat.quivers import Quiver, builtin_quiver, exchange_matrix

D5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
D6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
E8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))


def x(i, n=2):
    return LaurentPoly.variable(n, i)


def _quiver(name):
    return {"D5": D5, "D6": D6, "E6": E6, "E7": E7}.get(name) or builtin_quiver(name)


def test_arithmetic_examples():
    one = LaurentPoly.one(2)
    assert x(1) * LaurentPoly.monomial((-1, 0)) == one
    p = one + x(2)
    assert p.exact_div(p) == one
    q = one + x(1) + x(2) + x(1) * x(2)
    assert q.exact_div(one + x(1)) == one + x(2)


def test_public_constructor_checks_what_arithmetic_trusts():
    # arithmetic builds its results unchecked; the constructor casts to int,
    # drops zero terms and refuses a wrong-length exponent vector
    p = LaurentPoly(2, {(1.0, 0): 2.0, (0, 1): 0})
    assert p == LaurentPoly.monomial((1, 0), 2) and p.terms() == {(1, 0): 2}
    assert all(type(v) is int for e, c in p.terms().items() for v in (*e, c))
    assert (p - p).terms() == {} and p + LaurentPoly(2, {(1, 0): -2}) == LaurentPoly.zero(2)
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1, 0, 0): 1})


def test_monomial_reads_its_exponents_once():
    assert LaurentPoly.monomial(iter((1, 2))).terms() == {(1, 2): 1}
    assert LaurentPoly.monomial((e for e in (-1, 0, 3)), 5) == LaurentPoly(3, {(-1, 0, 3): 5})


def test_exact_div_raises_on_remainder():
    with pytest.raises(DivisionNotExact):
        (LaurentPoly.one(2) + x(1)).exact_div(LaurentPoly.one(2) + x(2))


_polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: LaurentPoly(2, terms))


@settings(max_examples=80, deadline=None)
@given(_polys, _polys)
def test_exact_div_undoes_multiplication(a, b):
    assert (a * b).exact_div(b) == a
    # the units of Z[x1^+-1, x2^+-1] are the monomials with coefficient +-1,
    # so a*b + 1 is a multiple of b only when b is one of them
    unit = len(b.terms()) == 1 and abs(next(iter(b.terms().values()))) == 1
    if not unit:
        with pytest.raises(DivisionNotExact):
            (a * b + LaurentPoly.one(2)).exact_div(b)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_div(a, b, n):
    """a / b by lex division after shifting both to nonnegative exponents, on
    exponent tuples and Fractions, as LaurentPoly divided before packing."""
    if not a:
        return {}
    sa = [min(e[i] for e in a) for i in range(n)]
    sb = [min(e[i] for e in b) for i in range(n)]
    num = {tuple(x - s for x, s in zip(e, sa)): Fraction(c) for e, c in a.items()}
    den = {tuple(x - s for x, s in zip(e, sb)): Fraction(c) for e, c in b.items()}
    lead_b, quot = max(den), {}
    while num:
        lead = max(num)
        qe = tuple(x - y for x, y in zip(lead, lead_b))
        if min(qe) < 0:
            raise DivisionNotExact
        qc = quot[qe] = num[lead] / den[lead_b]
        for e, c in den.items():
            te = tuple(x + y for x, y in zip(qe, e))
            num[te] = num.get(te, 0) - qc * c
            if not num[te]:
                del num[te]
    if any(c.denominator != 1 for c in quot.values()):
        raise DivisionNotExact
    return {tuple(x + s - t for x, s, t in zip(e, sa, sb)): int(c) for e, c in quot.items()}


def _ref_render(terms):
    text = ""
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mono = "*".join(f"x{i}" + (f"^{x}" if x != 1 else "") for i, x in enumerate(e, 1) if x)
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        text += ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += body
    return text or "0"


def _outcome(f):
    try:
        return f()
    except DivisionNotExact:
        return DivisionNotExact


@st.composite
def _term_dicts(draw):
    # 1-4 variables with exponents in +-40, the range the affine walks reach
    n = draw(st.integers(1, 4))
    terms = st.dictionaries(
        st.tuples(*[st.integers(-40, 40)] * n), st.integers(-5, 5).filter(bool), min_size=1, max_size=5
    )
    return n, draw(terms), draw(terms), draw(terms)


@settings(max_examples=150, deadline=None)
@given(_term_dicts())
@example((1, {(0,): -1}, {(1,): 1}, {(1,): 1}))  # a*b + c is zero
def test_packed_monomials_agree_with_exponent_tuples(case):
    n, ta, tb, tc = case
    a, b, c = (LaurentPoly(n, t) for t in (ta, tb, tc))
    ab = _ref_mul(ta, tb)
    results = {
        "a": (a, ta),
        "a*b": (a * b, ab),
        "a+b": (a + b, _ref_add(ta, tb)),
        "a-b": (a - b, _ref_add(ta, {e: -v for e, v in tb.items()})),
        "a*b/b": (_outcome(lambda: (a * b).exact_div(b)), _outcome(lambda: _ref_div(ab, tb, n))),
        "(a*b+c)/b": (
            _outcome(lambda: (a * b + c).exact_div(b)),
            _outcome(lambda: _ref_div(_ref_add(ab, tc), tb, n)),
        ),
        "a/b": (_outcome(lambda: a.exact_div(b)), _outcome(lambda: _ref_div(ta, tb, n))),
    }
    assert results["a*b/b"][0] == a
    for name, (p, ref) in results.items():
        if ref is DivisionNotExact:
            assert p is DivisionNotExact, name
            continue
        same = LaurentPoly(n, ref)
        assert p.terms() == ref and p.render() == _ref_render(ref), name
        assert p == same and hash(p) == hash(same), name
        if ref:
            assert p.denominator_vector() == tuple(-min(e[i] for e in ref) for i in range(n)), name


def test_exponents_stay_inside_their_fields():
    limit = laurent._LIMIT
    top = LaurentPoly.monomial((limit - 1, -(limit - 1)))
    assert top.terms() == {(limit - 1, -(limit - 1)): 1}
    for e in (limit, -limit):
        with pytest.raises(OverflowError):
            LaurentPoly.monomial((0, e))
    # fields at half the limit, the most a product admits, cancel without a carry
    h = limit // 2 - 1
    assert LaurentPoly.monomial((h, -h)) * LaurentPoly.monomial((-h, h)) == LaurentPoly.one(2)
    assert top.exact_div(LaurentPoly.monomial((limit - 1, 0))) == LaurentPoly.monomial((0, -(limit - 1)))
    # a product or quotient that would cross a field raises
    with pytest.raises(OverflowError):
        top * x(1)
    with pytest.raises(OverflowError):
        LaurentPoly.monomial((limit // 2, 0)) ** 2
    with pytest.raises(OverflowError):
        top.exact_div(LaurentPoly.monomial((0, 1)))
    assert (LaurentPoly.monomial((limit // 2 - 1, 0)) ** 2).terms() == {(limit - 2, 0): 1}


def test_render_canonical():
    p = LaurentPoly.monomial((-1, 1)) + LaurentPoly.monomial((-1, 0))
    assert p.render() == "x1^-1*x2 + x1^-1"
    assert LaurentPoly.one(2).render() == "1"


def test_powers_and_products_skip_needless_multiplications(monkeypatch):
    # x^5 is x * x^4 after two squarings. A D4 exploration builds the
    # binomial of each of its 52 exchange relations, one product for each
    # factor of a side past the first (32 in all), and divides only for the
    # 12 new variables; the other 40 are found by denominator vector and
    # certified by one product each. D6, E6 and E7 pin their products too
    calls = []
    mul = LaurentPoly.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    p = LaurentPoly.one(2) + x(1) + x(2) * x(2)
    product = p * p * p * p * p
    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    divisions = _counting_divisions(monkeypatch)
    assert p ** 0 == LaurentPoly.one(2)
    assert p ** 1 is p
    assert p ** 5 == product
    assert len(calls) == 3
    calls.clear()
    assert explore_exchange_graph(exchange_matrix(builtin_quiver("D4"))).cluster_count == 50
    assert len(calls) == 32 + 40
    assert len(divisions) == 12
    for name, clusters, products in [("D6", 672, 528), ("E6", 833, 818), ("E7", 4160, 2527)]:
        calls.clear()
        assert explore_exchange_graph(exchange_matrix(_quiver(name))).cluster_count == clusters
        assert len(calls) == products


def _counting_divisions(monkeypatch):
    divisions = []
    div = LaurentPoly.exact_div

    def counting_div(a, b):
        divisions.append(1)
        return div(a, b)

    monkeypatch.setattr(LaurentPoly, "exact_div", counting_div)
    return divisions


@pytest.mark.parametrize("name,varcount", [("A4", 14), ("D5", 25), ("D6", 36), ("E6", 42)])
def test_explore_divides_once_per_new_variable(monkeypatch, name, varcount):
    b = exchange_matrix(_quiver(name))
    divisions = _counting_divisions(monkeypatch)
    assert explore_exchange_graph(b).variable_count == varcount
    assert len(divisions) == varcount - len(b)


def _recorded(monkeypatch, name):
    """Wrap laurent.<name> so that each call's arguments and result are kept."""
    calls, f = [], getattr(laurent, name)

    def recording(*args):
        calls.append((args, f(*args)))
        return calls[-1][1]

    monkeypatch.setattr(laurent, name, recording)
    return calls


@pytest.mark.parametrize("name,depth", [("A4", None), ("D4", None), ("Atilde21", 4)])
def test_wrong_candidates_are_divided_out_and_interned_by_polynomial(monkeypatch, name, depth):
    # every lookup reads the vector of x_k's first neighbour x_i, so its
    # candidate is x_i, which stays in the cluster beside x_k' and so is never
    # x_k'; each one must fail its certificate, and the quotient must get the
    # id of its polynomial, not of the vector it was looked up under
    b = exchange_matrix(_quiver(name))
    expected = explore_exchange_graph(b, max_depth=depth)
    seeds, variables, truncated, reached = _bfs_explore(b, 99 if depth is None else depth)
    assert [frozenset(s.cluster) for s in expected.seeds] == list(seeds)
    assert expected.seeds == list(seeds.values())
    lookups = []

    def neighbours_vector(old, column, dens):
        lookups.append(old)
        return dens[column[0][0]]

    monkeypatch.setattr(laurent, "_read_off_denominator", neighbours_vector)
    divisions = _counting_divisions(monkeypatch)
    res = explore_exchange_graph(b, max_depth=depth)
    assert len(divisions) == len(lookups) > 0
    assert [frozenset(s.cluster) for s in res.seeds] == list(seeds)
    assert res.seeds == list(seeds.values())
    assert (res.variables, res.truncated, res.depth_reached) == (variables, truncated, reached)
    assert (res.cluster_count, res.variable_count) == (expected.cluster_count, expected.variable_count)


@pytest.mark.parametrize("name", ["A4", "D4", "D5"])
def test_denominators_read_off_the_factors_are_the_binomials(monkeypatch, name):
    read = _recorded(monkeypatch, "_read_off_denominator")
    binomials = _recorded(monkeypatch, "_exchange_binomial")
    explore_exchange_graph(exchange_matrix(_quiver(name)))
    assert len(read) == len(binomials) > 0
    for ((old, _, dens), d), (_, binom) in zip(read, binomials):
        assert tuple(a + o for a, o in zip(d, dens[old])) == binom.denominator_vector()


def test_denominator_vectors():
    assert x(1).denominator_vector() == (-1, 0)
    p = (LaurentPoly.one(2) + x(1) + x(2)).exact_div(x(1) * x(2))
    assert p.denominator_vector() == (1, 1)
    assert (LaurentPoly.one(2) + x(2)).exact_div(x(1)).denominator_vector() == (1, 0)
    with pytest.raises(ValueError):
        LaurentPoly.zero(2).denominator_vector()


def test_pentagon_mutation():
    b = exchange_matrix(builtin_quiver("A2"))
    s = initial_seed(b)
    s1 = seed_mutate(s, 1)
    assert s1.cluster[0] == (LaurentPoly.one(2) + x(2)).exact_div(x(1))
    # the five-periodicity of the A2 exchange relation, up to the swap
    t = s
    for k in (1, 2, 1, 2, 1):
        t = seed_mutate(t, k)
    assert t.cluster == (s.cluster[1], s.cluster[0])
    assert t.b == ((0, -1), (1, 0))


def test_mutation_index_out_of_range():
    s = initial_seed(exchange_matrix(builtin_quiver("A2")))
    with pytest.raises(IndexError):
        seed_mutate(s, 3)


def _bfs_explore(b, max_depth):
    """Breadth-first exploration that solves every mutation with seed_mutate,
    truncation probe included."""
    start = initial_seed(b)
    seeds = {frozenset(start.cluster): start}
    variables = set(start.cluster)
    layer, depth, truncated = [start], 0, False
    while layer:
        if depth >= max_depth:
            truncated = any(
                frozenset(seed_mutate(s, k).cluster) not in seeds
                for s in layer
                for k in range(1, len(b) + 1)
            )
            break
        next_layer = []
        for s in layer:
            for k in range(1, len(b) + 1):
                t = seed_mutate(s, k)
                if frozenset(t.cluster) not in seeds:
                    seeds[frozenset(t.cluster)] = t
                    variables.update(t.cluster)
                    next_layer.append(t)
        depth += bool(next_layer)
        layer = next_layer
    return seeds, variables, truncated, depth


def _dfs_explore(b):
    """Independent depth-first re-enumeration of seeds and variables."""
    start = initial_seed(b)
    seen = {frozenset(start.cluster): start}
    variables = set(start.cluster)
    stack = [start]
    while stack:
        s = stack.pop()
        for k in range(1, len(b) + 1):
            t = seed_mutate(s, k)
            key = frozenset(t.cluster)
            if key not in seen:
                seen[key] = t
                variables.update(t.cluster)
                stack.append(t)
    return seen, variables


@pytest.mark.parametrize(
    "name,clusters,varcount",
    [("A2", 5, 5), ("A3", 14, 9), ("A4", 42, 14), ("D4", 50, 16), ("D5", 182, 25)],
)
def test_finite_type_counts_with_dfs_oracle(name, clusters, varcount):
    b = exchange_matrix(_quiver(name))
    res = explore_exchange_graph(b)
    assert not res.truncated
    assert res.cluster_count == clusters
    assert res.variable_count == varcount
    seen, variables = _dfs_explore(b)
    keys = [frozenset(s.cluster) for s in res.seeds]
    assert len(keys) == len(set(keys)) == len(seen)
    assert set(keys) == set(seen)
    assert variables == res.variables
    # every exchange the table answered is also reached by plain seed_mutate
    for s in res.seeds:
        for k in range(1, len(b) + 1):
            assert frozenset(seed_mutate(s, k).cluster) in seen


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_affine_exchange_table_matches_plain_bfs(depth):
    b = exchange_matrix(builtin_quiver("Atilde21"))
    res = explore_exchange_graph(b, max_depth=depth)
    seeds, variables, truncated, depth_reached = _bfs_explore(b, depth)
    assert [frozenset(s.cluster) for s in res.seeds] == list(seeds)
    assert res.seeds == list(seeds.values())
    assert res.variables == variables
    assert (res.truncated, res.depth_reached) == (truncated, depth_reached) == (True, depth)


@pytest.mark.parametrize("name,depth", [("A3", None), ("D4", None), ("Atilde21", 3)])
def test_mutations_are_seed_mutate_of_each_expanded_seed(name, depth):
    # explore's tuple for each expanded seed holds seed_mutate's variables at
    # k = 1..n; a cutoff leaves the seeds found at the last depth without one
    b = exchange_matrix(builtin_quiver(name))
    res = explore_exchange_graph(b, max_depth=depth)
    inner = res if depth is None else explore_exchange_graph(b, max_depth=depth - 1)
    assert len(res.mutations) == inner.cluster_count
    for s, made in zip(res.seeds, res.mutations):
        assert made == tuple(seed_mutate(s, k).cluster[k - 1] for k in range(1, len(b) + 1))


@pytest.mark.slow
def test_explore_e8_exhaustive():
    # the Fomin-Zelevinsky counts for E8, and denominator vectors separate
    # all 128 cluster variables
    res = explore_exchange_graph(exchange_matrix(E8))
    assert (res.cluster_count, res.variable_count, res.truncated) == (25_080, 128, False)
    assert den_injectivity_check(res.variables).ok


def test_a4_and_d4_counts():
    res = explore_exchange_graph(exchange_matrix(builtin_quiver("A4")))
    assert (res.cluster_count, res.variable_count) == (42, 14)
    res = explore_exchange_graph(exchange_matrix(builtin_quiver("D4")))
    assert (res.cluster_count, res.variable_count) == (50, 16)


def test_affine_exploration_requires_depth_and_truncates():
    b = exchange_matrix(builtin_quiver("Atilde21"))
    with pytest.raises(ValueError):
        explore_exchange_graph(b)
    prev = 0
    for depth in (2, 4, 6):
        res = explore_exchange_graph(b, max_depth=depth)
        assert res.truncated
        assert res.depth_reached == depth
        assert res.variable_count > prev
        prev = res.variable_count


def test_noninitial_denominators_positive_in_finite_type():
    for name in ("A2", "A3"):
        b = exchange_matrix(builtin_quiver(name))
        res = explore_exchange_graph(b)
        n = len(b)
        initial = set(initial_seed(b).cluster)
        for v in res.variables:
            d = v.denominator_vector()
            if v in initial:
                assert sum(d) == -1 and max(d) == 0
            else:
                assert all(c >= 0 for c in d) and any(c > 0 for c in d)
                assert len(d) == n


def test_den_injectivity_check():
    b = exchange_matrix(builtin_quiver("A3"))
    res = explore_exchange_graph(b)
    ok = den_injectivity_check(sorted(res.variables, key=lambda p: p.render()))
    assert ok.ok and ok.witness is None
    dup = den_injectivity_check([x(1, 3), x(1, 3) + x(1, 3)])
    assert not dup.ok
    assert dup.witness["denominator"] == [-1, 0, 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6))
def test_seed_mutation_involution_and_matrix_lockstep(seq):
    from clustercat.quivers import mutate_matrix

    b = exchange_matrix(builtin_quiver("A3"))
    s = initial_seed(b)
    for k in seq:
        s = seed_mutate(s, k)
        b = mutate_matrix(b, k)
        assert s.b == b
    # undoing the sequence restores the initial seed exactly
    for k in reversed(seq):
        s = seed_mutate(s, k)
    assert s.cluster == initial_seed(exchange_matrix(builtin_quiver("A3"))).cluster


def test_laurent_phenomenon_random_walks():
    rng = random.Random(7)
    for name in ("A3", "D4", "Atilde21"):
        b = exchange_matrix(builtin_quiver(name))
        n = len(b)
        s = initial_seed(b)
        for _ in range(60):
            s = seed_mutate(s, rng.randrange(1, n + 1))  # raises on failure
        for v in s.cluster:
            assert all(c >= 1 for c in v.terms().values())
