"""Checks for the cluster category tables.

The hom table inside GammaC is read off dimension vectors.  The oracle
below recomputes every hom dimension from plain module theory through the
orbit construction: maps X -> Y come from module maps together with maps
into the translate of the shift, so for modules

    hom_C(X, Y) = hom(X, Y) + ext1(X, tau_inverse(Y))

with the correction dropped when Y is injective, and the shifted
projectives are handled through ext groups and projective supports.  The
two routes share no code.

A second oracle knits hom dimensions on ZQ by the mesh relations (``ZQ``
below, with an orbit walk of its own) and folds them onto the category by
the glide: every row of GammaC's table, and the module table's hom at the
module positions, must be the knitted one.
"""

import copy
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import operator
import re
from array import array

import pytest
from test_reps import injective_dims, tau, tau_inverse

from clustercat import category, cli, laurent, quivers, reps, tilting
from clustercat.category import (
    CVertex,
    ExchangeData,
    GammaC,
    MultipleComplements,
    NoComplement,
    _theorem1_report,
    den_vs_hom_crosscheck,
    exchange_data,
    is_compatible,
    lemma67_report,
    theorem1_injectivity,
    walk_tilting,
)
from clustercat.laurent import LaurentPoly, Seed, explore_exchange_graph, initial_seed, seed_mutate
from clustercat.quivers import (
    EulerData,
    Quiver,
    builtin_quiver,
    coxeter_number,
    euler_data,
    exchange_matrix,
    mutate_matrix,
    positive_roots,
)
from clustercat.reps import ext1_dim, hom, indecomposable_from_root, projective_dims
from clustercat.tilting import enumerate_tilting_modules, prop8_descent


A1 = Quiver(1, ())
D5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
D6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
E8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))
QUIVERS = {"A4": builtin_quiver("A4"), "D4": builtin_quiver("D4"), "D6": D6, "E6": E6, "E7": E7, "E8": E8}


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
        return CVertex(injective_dims(quiver, v.shift_vertex), None)
    for i in range(1, quiver.n + 1):
        if v.dims == projective_dims(quiver, i):
            return CVertex(None, i)
    return CVertex(tau(indecomposable_from_root(quiver, v.dims)).dims, None)


@pytest.mark.parametrize(
    "q",
    [
        builtin_quiver("A2"),
        builtin_quiver("A3"),
        builtin_quiver("D4"),
        builtin_quiver("A4"),
        D5,
        D6,
        E6,
        E7,
        pytest.param(E8, marks=pytest.mark.slow),
    ],
    ids=["A2", "A3", "D4", "A4", "D5", "D6", "E6", "E7", "E8"],
)
def test_hom_table_matches_module_oracle(q):
    g = GammaC(q)
    for x, vx in enumerate(g.vertices):
        for y, vy in enumerate(g.vertices):
            assert g.hom_i[x][y] == oracle_hom_c(q, vx, vy), (vx, vy)


def linear(n):
    return Quiver(n, tuple((i, i + 1) for i in range(1, n)))


def type_d(n):
    """D_n as the path 1 -> ... -> n - 1 with the arrow n - 2 -> n."""
    return Quiver(n, (*linear(n - 1).arrows, (n - 2, n)))


def orientations(q):
    """Every quiver on q's underlying graph, one per choice of arrow directions."""
    for flips in itertools.product((False, True), repeat=len(q.arrows)):
        yield Quiver(q.n, tuple((t, s) if flip else (s, t) for (s, t), flip in zip(q.arrows, flips)))


class ZQ:
    """The vertices of the cluster category placed on the stable translation
    quiver ZQ by an orbit walk of its own: tau^-k P_i at (k, i) up to the
    injective I_j on row i, and P_j[1] one step past it.  The glide that
    folds ZQ onto the category moves (k, i) to (k + k_i + 2, c_i), where
    (k_i, c_i) is the position of I_i, and the suspension stops one translate
    short of it."""

    def __init__(self, q):
        ed = euler_data(q)
        inj = {injective_dims(q, j): j for j in range(1, q.n + 1)}
        self.pos, inj_pos = {}, {}
        for i in range(1, q.n + 1):
            d, k = projective_dims(q, i), 0
            self.pos[CVertex(d, None)] = (0, i)
            while d not in inj:
                d, k = ed.inverse_coxeter_transform(d), k + 1
                self.pos[CVertex(d, None)] = (k, i)
            inj_pos[inj[d]] = (k, i)
            self.pos[CVertex(None, inj[d])] = (k + 1, i)
        self.at = {p: v for v, p in self.pos.items()}
        assert len(self.at) == len(self.pos)
        self.last = max(k for k, _ in self.at)
        self.row_shift = {i: k + 2 for i, (k, _) in inj_pos.items()}
        self.row_image = {i: c for i, (_, c) in inj_pos.items()}
        self.row_preimage = {c: i for i, c in self.row_image.items()}
        assert len(self.row_preimage) == q.n
        self.out_nb = {v: [t for s, t in q.arrows if s == v] for v in range(1, q.n + 1)}
        self.in_nb = {v: [s for s, t in q.arrows if t == v] for v in range(1, q.n + 1)}
        self.slice_order = list(reversed(q.topological_order()))

    def glide(self, pos):
        k, i = pos
        return (k + self.row_shift[i], self.row_image[i])

    def glide_inv(self, pos):
        k, j = pos
        i = self.row_preimage[j]
        return (k - self.row_shift[i], i)

    def suspend(self, pos):
        k, i = self.glide(pos)
        return (k - 1, i)

    def reduce(self, pos):
        """The vertex that the glide orbit of a ZQ position meets: back
        through the slices left of it, then forward through the rest (the
        glide moves at least two slices, so both loops end)."""
        cur = pos
        while cur[0] >= 0:
            if cur in self.at:
                return self.at[cur]
            cur = self.glide_inv(cur)
        while cur[0] <= self.last:
            if cur in self.at:
                return self.at[cur]
            cur = self.glide(cur)
        raise AssertionError(f"the glide orbit of {pos} misses every vertex")

    def hammock(self, x):
        """Hammock of maps out of x on ZQ: dim Hom(x, -) in D^b(kQ) at every
        position from x's slice through the slice of its suspension, knitted
        by the mesh relations.  For modules x and y this is dim Hom_kQ(x, y)
        at y's position (Happel: D^b(kQ) is the mesh category of ZQ)."""
        k0, i0 = self.pos[x]
        sx = self.suspend((k0, i0))
        h = {}
        for k in range(k0, sx[0] + 1):
            for v in self.slice_order:
                raw = (
                    sum(h.get((k, m), 0) for m in self.out_nb[v])
                    + sum(h.get((k - 1, j), 0) for j in self.in_nb[v])
                    - h.get((k - 1, v), 0)
                )
                val = raw + ((k, v) == (k0, i0)) + ((k, v) == sx)
                assert val >= 0 and (raw >= 0 or (k, v) == sx), f"mesh count went negative at {(k, v)}"
                h[(k, v)] = val
        assert h[(k0, i0)] == 1
        assert not any(h[(sx[0], v)] for v in self.slice_order)
        return h


def knit_row(zq, g, x):
    """The hammock of vertex x folded over the glide: the row of hom
    dimensions from x to every vertex of g, knitted on ZQ."""
    row = [0] * len(g.vertices)
    index = {v: y for y, v in enumerate(g.vertices)}
    for pos, h in zq.hammock(x).items():
        if h:
            row[index[zq.reduce(pos)]] += h
    return tuple(row)


ORIENTED = {
    f"{name}-{j}": q
    for name, base in (("A4", builtin_quiver("A4")), ("D4", builtin_quiver("D4")), ("D5", D5))
    for j, q in enumerate(orientations(base))
}


@pytest.mark.parametrize(
    "q",
    [A1, *map(linear, range(2, 7)), builtin_quiver("D4"), D5, D6, E6, E7, E8, *ORIENTED.values()],
    ids=["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8", *ORIENTED],
)
def test_hom_rows_are_translated_projective_rows(q):
    # each row is P_i's row of dimension vector entries, read at tau^k; the
    # folded hammock of every vertex is the reference, and on ZQ tau is the
    # suspension, modulo the glide
    g = GammaC(q)
    zq = ZQ(q)
    assert g.hom_i == tuple(knit_row(zq, g, v) for v in g.vertices)
    assert [g.vertices[t] for t in g.tau_i] == [zq.reduce(zq.suspend(zq.pos[v])) for v in g.vertices]


@pytest.mark.parametrize(
    "q",
    [A1, *map(linear, range(2, 7)), builtin_quiver("D4"), D5, D6, E6, E7, E8],
    ids=["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8"],
)
def test_module_table_hom_is_the_knitted_hammock(q):
    # the module table's hom is the Euler form's positive part; the hammock of
    # each module, read at the module positions, is the reference
    table = tilting._directed_indecomposables(q)
    zq = ZQ(q)
    at = [zq.pos[CVertex(m.dims, None)] for m in table.ordered]
    for m, row in zip(table.ordered, table.hh):
        h = zq.hammock(CVertex(m.dims, None))
        assert row == tuple(h.get(p, 0) for p in at), m.dims


def ext_free_pair(hom, tau):
    """The first x != y with no extension either way and tau y != x, so
    that raising hom(x, tau y) leaves x's brick check alone."""
    return next(
        (x, y)
        for x, y in itertools.permutations(range(len(hom)), 2)
        if hom[x][tau[y]] == hom[y][tau[x]] == 0 and tau[y] != x
    )


class PlantedExt(GammaC):
    """GammaC whose hom table, once built, gets one entry raised by 1, at
    (x, tau y) for the ``ext_free_pair`` (x, y): ext1(x, y) = 1 against
    ext1(y, x) = 0."""

    @property
    def hom_i(self):
        return self._planted

    @hom_i.setter
    def hom_i(self, rows):
        x, y = ext_free_pair(rows, self.tau_i)
        ty = self.tau_i[y]
        self._planted = tuple(row[:ty] + (row[ty] + 1,) + row[ty + 1 :] if r == x else row for r, row in enumerate(rows))


GAMMAC_DIGESTS = {
    "D4": "0093a16734b267b728309028bd6286cec8ab309922a26e12bb59113f2abfe926",
    "D6": "ad886228b0fe6fc73697d7217c962319107275ddb17a6157a31b814c5aa34372",
    "E6": "cde5d45e8492de9a5bd6178a5668f96321eba04ae05a7c99ef67dafc277c6a0d",
    "E7": "e7ad665d98f3d8b5145d2e5024ac39a7a081906a575ab7dfcb975c01ee278aa7",
    "E8": "e46cb4e70c099d9902d6a595fc0ccb637e6317a5fa7a71484f3e031ee8dfa711",
    "E8-reversed": "8239d5029d50a644a210b8ebeafeea4f949fda321fd0926cd6ca38bc65161042",
}


@pytest.mark.parametrize("name", GAMMAC_DIGESTS)
def test_gammac_tables_are_pinned(name):
    # sha256 of every table GammaC builds: another route to them must give
    # the same tables
    q = {**QUIVERS, "E8-reversed": Quiver(8, tuple((t, s) for s, t in E8.arrows))}[name]
    g = GammaC(q)
    fields = {"vertices": [v.render() for v in g.vertices], "tau_i": g.tau_i, "hom_i": g.hom_i,
              "ext_free": g.ext_free, "proj_i": g.proj_i, "shift_i": g.shift_i}
    assert hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest() == GAMMAC_DIGESTS[name]


def branched(n, b):
    """The path 1 -> ... -> n-1 with a leaf b -> n: D_n for b = n-2, E_n for b = 3."""
    return Quiver(n, tuple((i, i + 1) for i in range(1, n - 1)) + ((b, n),))


DYNKIN = {
    **{f"A{n}": linear(n) for n in range(1, 9)},
    **{f"D{n}": branched(n, n - 2) for n in range(4, 9)},
    **{f"E{n}": branched(n, 3) for n in (6, 7, 8)},
    **ORIENTED,
}


@pytest.mark.parametrize("q", DYNKIN.values(), ids=DYNKIN)
def test_orbit_modules_are_the_positive_roots(q):
    # the Tits form and the count n h / 2 against the reflection closure
    from test_quivers import _full_reflection_closure  # test_quivers imports this module

    g = GammaC(q)
    modules = [v.dims for v in g.vertices if v.is_module]
    assert set(modules) == positive_roots(q) == _full_reflection_closure(q)
    assert len(modules) == q.n * coxeter_number(g.diagram) // 2


def test_gammac_reads_no_root_closure_or_path_algebra(monkeypatch):
    # the orbit walk runs on dimension vectors, and no CVertex label is hashed
    def refuse(*args):
        raise AssertionError("GammaC must not call this")

    rows_roots = quivers.positive_roots
    quivers.tau_orbits.cache_clear()
    for mod in (quivers, reps, category, tilting):
        for name in ("positive_roots", "injective_dims", "projective_dims"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    monkeypatch.setattr(reps.MonomialAlgebra, "_all_paths", refuse)
    hashed = []
    label_hash = CVertex.__hash__
    monkeypatch.setattr(CVertex, "__hash__", lambda v: hashed.append(v) or label_hash(v))
    g = GammaC(E8)
    assert hashed == []
    # the module walk and the module table read the same rows and count no
    # paths; the table's lookups by root check membership in the rows, as
    # positive_roots is their set of vectors
    monkeypatch.setattr(reps, "positive_roots", rows_roots)
    reps._indecomposables.cache_clear()
    tilting._directed_indecomposables.cache_clear()
    try:
        table = tilting._directed_indecomposables(E8)
    finally:
        reps._indecomposables.cache_clear()
        tilting._directed_indecomposables.cache_clear()
    assert {m.dims for m in table.ordered} == {v.dims for v in g.vertices if v.is_module}
    assert len(table.injective) == E8.n


@pytest.fixture
def cold_orbits():
    """An empty orbit cache before and after the test, so that the walk reads
    tampered data and no tampered rows outlive the test."""
    quivers.tau_orbits.cache_clear()
    yield
    quivers.tau_orbits.cache_clear()


def tampered(monkeypatch, q, **fields):
    """The orbit walk's Euler data for q with the given attributes replaced."""
    ed = EulerData(q)
    for name, value in fields.items():
        setattr(ed, name, value)
    monkeypatch.setattr(quivers, "euler_data", lambda _: ed)
    return ed


@pytest.mark.usefixtures("cold_orbits")
@pytest.mark.parametrize("i,j", itertools.product(range(4), repeat=2))
def test_a_changed_inverse_coxeter_entry_is_caught(monkeypatch, i, j):
    inv = [list(row) for row in EulerData(builtin_quiver("D4")).inverse_matrix]
    inv[i][j] += 1
    tampered(monkeypatch, builtin_quiver("D4"), inverse_matrix=tuple(map(tuple, inv)))
    with pytest.raises(AssertionError, match="translate disagrees with the matrix transform"):
        GammaC(builtin_quiver("D4"))


@pytest.mark.usefixtures("cold_orbits")
def test_an_orbit_ending_off_the_projectives_is_caught(monkeypatch):
    # the Coxeter matrices of 1 -> 2 <- 3 keep the Tits form of A3 and are
    # inverse to each other, but tau^-1 of the last module of an orbit of
    # 1 -> 2 -> 3 is then not a shifted projective
    other = EulerData(Quiver(3, ((1, 2), (3, 2))))
    tampered(monkeypatch, builtin_quiver("A3"), matrix=other.matrix, inverse_matrix=other.inverse_matrix)
    with pytest.raises(AssertionError, match="orbit walk ended off the projectives"):
        GammaC(builtin_quiver("A3"))


@pytest.mark.usefixtures("cold_orbits")
def test_a_tits_form_missing_an_edge_is_caught(monkeypatch):
    ed = tampered(monkeypatch, builtin_quiver("A3"))
    monkeypatch.setattr(ed, "_arrows", ed._arrows[:-1])
    with pytest.raises(AssertionError, match="orbit walk left the root system"):
        GammaC(builtin_quiver("A3"))


@pytest.mark.usefixtures("cold_orbits")
def test_a_short_orbit_count_is_caught(monkeypatch):
    monkeypatch.setattr(quivers, "coxeter_number", lambda diagram, h=quivers.coxeter_number: h(diagram) + 2)
    with pytest.raises(AssertionError, match="orbit walk missed some modules"):
        GammaC(builtin_quiver("D4"))


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_asymmetric_ext_is_caught(name):
    # 2-Calabi-Yau duality: ext1(x, y) = ext1(y, x) for every pair
    g = GammaC(builtin_quiver(name))
    x, y = ext_free_pair(g.hom_i, g.tau_i)
    pair = f"{g.vertices[x].render()}, {g.vertices[y].render()}"
    with pytest.raises(AssertionError, match=rf"ext1 is not symmetric at \({re.escape(pair)}\): 1 against 0"):
        PlantedExt(builtin_quiver(name))


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
        assert g.vertices[g.proj_i[i - 1]] == CVertex(projective_dims(q, i), None)
        assert g.vertices[g.shift_i[i - 1]] == CVertex(None, i)
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


def tilting_key(summands):
    """The bitmask of a tilting object's summand ids."""
    return functools.reduce(operator.or_, (1 << x for x in summands), 0)


def expanded_objects(g):
    """The summands of each tilting object walk_tilting expands, in order."""
    return [summands for summands, _, _ in walk_tilting(g)]


def folded_matrices(g, objects):
    """The exchange matrix of each object of a walk of g: the quiver's at
    P[1], and otherwise its origin's mutated at the origin's k."""
    matrices = []
    for _, _, origin in objects:
        if origin is None:
            matrices.append(exchange_matrix(g.quiver))
        else:
            matrices.append(mutate_matrix(matrices[origin[0]], origin[1]))
    return matrices


@pytest.mark.parametrize("name,count", [("A2", 5), ("A3", 14), ("D4", 50)])
def test_tilting_object_counts_two_routes(name, count):
    g = GammaC(builtin_quiver(name))
    objects = list(walk_tilting(g))
    assert len(objects) == count
    assert brute_force_tilting_count(g) == count
    start, _, origin = objects[0]
    assert (start, origin) == (g.shift_i, None)
    assert None not in [origin for _, _, origin in objects[1:]]


def test_a1_counts():
    # with one vertex no other summand narrows the partner mask
    g = GammaC(A1)
    assert expanded_objects(g) == [g.shift_i, g.proj_i]
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
    assert len(list(walk_tilting(g))) == 833
    assert hashed == []


def label_key(v):
    """The order of GammaC's vertices: modules by dimension vector, then the
    shifted projectives by quiver vertex."""
    return (0, v.dims) if v.is_module else (1, (v.shift_vertex,))


@pytest.mark.parametrize("name", ["A4", "D4", "D6", "E6", "E7", "E8"])
def test_int_tables_match_vertex_queries(name):
    g = GammaC(QUIVERS[name])
    assert list(g.vertices) == sorted(g.vertices, key=label_key)
    for x, vx in enumerate(g.vertices):
        assert g.vertices[g.tau_i[x]] == oracle_tau(QUIVERS[name], vx)
        for y, vy in enumerate(g.vertices):
            ext_free = ext_c(g, x, y) == 0 and ext_c(g, y, x) == 0
            assert bool(g.ext_free[x] >> y & 1) == ext_free, (vx, vy)


def brute_force_partner(g, summands, b, k):
    """Exchange partner of summand k by scanning every indecomposable for one
    that is rigid and ext-free with the other summands, with the middle terms
    read off column k of the matrix b and ordered by their labels; the route
    mutate_tilting replaced."""
    n = g.quiver.n
    tk = summands[k - 1]
    others = tuple(v for i, v in enumerate(summands) if i != k - 1)
    found = [
        cand
        for cand in range(len(g.vertices))
        if cand != tk
        and cand not in others
        and not ext_c(g, cand, cand)
        and all(not ext_c(g, cand, o) and not ext_c(g, o, cand) for o in others)
    ]
    col = [b[i][k - 1] for i in range(n)]

    def middle(sign):
        pairs = {summands[i]: sign * col[i] for i in range(n) if sign * col[i] > 0}
        return tuple(sorted(pairs.items(), key=lambda p: label_key(g.vertices[p[0]])))

    return found, middle(1), middle(-1)


def initial_seed_c(g):
    """The projective generator with the quiver's own exchange matrix, as
    (summands, b)."""
    return g.proj_i, exchange_matrix(g.quiver)


def mutate_tilting(g, summands, b, k):
    """One-step oracle: replace summand k of a tilting object by its unique
    exchange partner, and return the new summands, b mutated at k, and the
    exchange data of the step. The partner is the one vertex outside the
    object in the AND of the other summands' ext_free masks, started from all
    ones so that it is exact when the summand is the only one; the walker ANDs
    a prefix and a suffix instead."""
    masks = (g.ext_free[x] for i, x in enumerate(summands) if i != k - 1)
    mask = functools.reduce(operator.and_, masks, (1 << len(g.vertices)) - 1) & ~tilting_key(summands)
    assert mask.bit_count() == 1
    tk_star = mask.bit_length() - 1
    nxt = summands[: k - 1] + (tk_star,) + summands[k:]
    return nxt, mutate_matrix(b, k), exchange_data(summands, b, k, tk_star)


@pytest.mark.parametrize("name", ["A4", "D4", "D6", "E6"])
def test_mask_partner_matches_brute_force_scan(monkeypatch, name):
    g = GammaC(QUIVERS[name])
    reduced = []
    real_reduce = category.reduce
    monkeypatch.setattr(category, "reduce", lambda *args: reduced.append(args) or real_reduce(*args))
    objects = list(walk_tilting(g))
    # only the start's key is read off its summands; every other key is the
    # walk's XOR
    assert len(reduced) == 1
    # the walker queues an object only for the edge that first reaches its
    # key, and expands the objects in that order
    matrices = folded_matrices(g, objects)
    assert objects[0][0] == g.shift_i
    seen = {tilting_key(g.shift_i)}
    queued = 1
    edges = [
        (at, k, tk_star) for at, (_, partners, _) in enumerate(objects) for k, tk_star in enumerate(partners, 1)
    ]
    for at, k, tk_star in edges:
        summands, b = objects[at][0], matrices[at]
        found, e, e_prime = brute_force_partner(g, summands, b, k)
        assert found == [tk_star], (summands, k)
        nxt, nb, xd = mutate_tilting(g, summands, b, k)
        assert xd == ExchangeData(summands[k - 1], tk_star, e, e_prime)
        assert ext_c(g, xd.tk, xd.tk_star) == 1
        assert nxt[k - 1] == tk_star
        assert nxt[:k - 1] + nxt[k:] == summands[:k - 1] + summands[k:]
        # the walk's next key is one XOR; recompute it from the summands
        key = tilting_key(summands) ^ (1 << summands[k - 1]) ^ (1 << tk_star)
        assert key == tilting_key(nxt)
        if key not in seen:
            seen.add(key)
            built, _, origin = objects[queued]
            assert (built, origin, matrices[queued]) == (nxt, (at, k), nb)
            queued += 1
    assert queued == len(objects)
    # Fomin-Zelevinsky cluster counts
    assert len(seen) == {"A4": 42, "D4": 50, "D6": 672, "E6": 833}[name]
    assert len(edges) == len(seen) * g.quiver.n


def test_walk_mutates_matrices_only_for_new_objects(monkeypatch, capsys):
    # D4 has 50 tilting objects and 200 edges: neither the walk nor Theorem 1
    # mutates a matrix or builds exchange data; every object but P[1] has an
    # origin, and lemma67 mutates its origin's matrix once for each and
    # builds one exchange per edge
    calls = {"mutate_matrix": 0, "ExchangeData": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(category, "mutate_matrix")
    counting(category, "ExchangeData")
    g = GammaC(builtin_quiver("D4"))
    objects = list(walk_tilting(g))
    assert sum(len(partners) for _, partners, _ in objects) == 200
    assert calls == {"mutate_matrix": 0, "ExchangeData": 0}
    assert theorem1_injectivity(builtin_quiver("D4"))["tilting_count"] == 50
    assert calls == {"mutate_matrix": 0, "ExchangeData": 0}
    assert sum(origin is not None for _, _, origin in objects) == 49
    assert cli.main(["verify", "lemma67", "--type", "D4"]) == 0
    assert json.loads(capsys.readouterr().out)["details"]["tilting_objects"] == 50
    assert calls == {"mutate_matrix": 49, "ExchangeData": 200}


@pytest.mark.parametrize("quiver", [D5, E6], ids=["D5", "E6"])
def test_origins_fold_to_explore_matrices(quiver):
    # each object but P[1] names the earlier object, and the k, of the first
    # edge of the walk that reaches it, and its summands are that object's
    # with summand k swapped for its partner; folding the origins through
    # mutate_matrix gives the matrices of explore's seeds, in order
    g = GammaC(quiver)
    objects = list(walk_tilting(g))
    position = {tilting_key(summands): at for at, (summands, _, _) in enumerate(objects)}
    first = {0: None}
    for at, (summands, partners, _) in enumerate(objects):
        for k, tk_star in enumerate(partners, 1):
            first.setdefault(position[tilting_key(summands[: k - 1] + (tk_star,) + summands[k:])], (at, k))
    assert [origin for _, _, origin in objects] == [first[at] for at in range(len(objects))]
    for summands, _, (at, k) in objects[1:]:
        parent, partners, _ = objects[at]
        assert summands == parent[: k - 1] + (partners[k - 1],) + parent[k:]
    res = explore_exchange_graph(exchange_matrix(quiver))
    assert folded_matrices(g, objects) == [s.b for s in res.seeds]


def test_walker_expands_each_tilting_object_once():
    g = GammaC(builtin_quiver("D4"))
    objects = list(walk_tilting(g))
    expanded = [summands for summands, _, _ in objects]
    assert [len(partners) for _, partners, _ in objects] == [4] * len(expanded)
    assert expanded[0] == g.shift_i
    assert len(set(map(tilting_key, expanded))) == len(expanded) == 50
    for s in expanded:
        assert len(set(s)) == 4
        assert all(ext_c(g, a, b) == 0 for a in s for b in s)


def test_non_tilting_seeds_raise():
    # a walk started from four vertices that are not a tilting object runs
    # its partner checks on them: they fire at the first summand where the
    # brute-force scan finds no partner, two, or one whose extension space is
    # not one dimensional, and where every summand has one partner the walk
    # yields those
    g = GammaC(builtin_quiver("D4"))
    b = exchange_matrix(g.quiver)
    raised = set()
    for combo in itertools.combinations(range(len(g.vertices)), 4):
        start = copy.copy(g)
        start.shift_i = combo
        error, partners = None, []
        for k, tk in enumerate(combo, 1):
            found, _, _ = brute_force_partner(g, combo, b, k)
            if not found:
                error = NoComplement
            elif len(found) > 1:
                error = MultipleComplements
            elif ext_c(g, tk, found[0]) != 1:
                error = AssertionError
            else:
                partners.append(found[0])
                continue
            break
        if error is None:
            assert next(walk_tilting(start)) == (combo, tuple(partners), None)
            continue
        with pytest.raises(error):
            next(walk_tilting(start))
        raised.add(error)
    assert raised == {NoComplement, MultipleComplements, AssertionError}


def test_mutation_exchange_a2():
    # from the projective seed of 1->2, exchanging position 2 replaces P2
    # by the simple at 1 through the triangle with middle term P1
    g = GammaC(builtin_quiver("A2"))
    new, b, xd = mutate_tilting(g, *initial_seed_c(g), 2)
    assert g.vertices[xd.tk] == CVertex((0, 1), None)
    assert g.vertices[xd.tk_star] == CVertex((1, 0), None)
    assert xd.e == ((g.vertices.index(CVertex((1, 1), None)), 1),)
    assert xd.e_prime == ()
    assert new[1] == xd.tk_star
    assert b == ((0, -1), (1, 0))


def test_mutation_is_involutive():
    g = GammaC(builtin_quiver("A3"))
    summands, b = initial_seed_c(g)
    for k in (1, 2, 3):
        once, once_b, _ = mutate_tilting(g, summands, b, k)
        twice, twice_b, _ = mutate_tilting(g, once, once_b, k)
        assert twice == summands
        assert twice_b == b


def lemma6_check(g: GammaC, xd: ExchangeData) -> tuple[bool, ...]:
    """Lemma 6 on one exchange pair, as the per-pair oracle of the Serre
    duality check in ``lemma67_report``: for every vertex id m, dual
    compatibility of m agrees with compatibility of m for the double-shifted
    pair.

    Dual criterion: m is the suspension of one of the pair, or the hom count
    from the pair into m matches the larger of the counts from the middle
    terms. The double shift acts on the translation quiver as tau twice; the
    shifted pair is built once for every m.
    """
    hom, tau = g.hom_i, g.tau_i
    e2, e2_prime = (tuple(sorted((tau[tau[v]], c) for v, c in mid)) for mid in (xd.e, xd.e_prime))
    shifted = ExchangeData(tau[tau[xd.tk]], tau[tau[xd.tk_star]], e2, e2_prime)
    return tuple(
        (
            x in (tau[xd.tk], tau[xd.tk_star])
            or hom[xd.tk][x] + hom[xd.tk_star][x]
            == max(sum(c * hom[v][x] for v, c in mid) for mid in (xd.e, xd.e_prime))
        )
        == is_compatible(g, x, shifted)
        for x in range(len(g.vertices))
    )


def test_compatibility_and_dual_criterion_sweep():
    g = GammaC(builtin_quiver("A3"))
    seen = 0
    stack = [initial_seed_c(g)]
    visited = {tilting_key(g.proj_i)}
    while stack:
        summands, b = stack.pop()
        for k in range(1, 4):
            new, new_b, xd = mutate_tilting(g, summands, b, k)
            for x, agree in zip(range(len(g.vertices)), lemma6_check(g, xd), strict=True):
                assert is_compatible(g, x, xd)
                assert agree
                seen += 1
            if tilting_key(new) not in visited:
                visited.add(tilting_key(new))
                stack.append((new, new_b))
    assert len(visited) == 14
    assert seen == 14 * 3 * 9


def test_tampered_exchange_data_is_detected():
    g = GammaC(builtin_quiver("A3"))
    _, _, xd = mutate_tilting(g, *initial_seed_c(g), 2)
    wrong = dataclasses.replace(xd, e=((g.proj_i[2], 1),))
    assert any(not is_compatible(g, x, wrong) for x in range(len(g.vertices)))


def walk_exchanges(g):
    """The exchange data of every edge of a walk of g, in walk order."""
    objects = list(walk_tilting(g))
    return [
        exchange_data(summands, b, k, tk_star)
        for (summands, partners, _), b in zip(objects, folded_matrices(g, objects))
        for k, tk_star in enumerate(partners, 1)
    ]


@pytest.mark.parametrize(
    "quiver,objects,compatibility,propagation",
    [
        (E6, 833, 209_916, 179_928),
        pytest.param(E7, 4160, 2_038_400, 1_834_560, marks=pytest.mark.slow),
    ],
    ids=["E6", "E7"],
)
def test_lemma67_report_counts(quiver, objects, compatibility, propagation):
    assert lemma67_report(quiver) == {
        "diagram": GammaC(quiver).diagram.label,
        "tilting_objects": objects,
        "compatibility_cases": compatibility,
        "propagation_cases": propagation,
        "ok": True,
        "failures": [],
    }


@pytest.mark.parametrize("quiver", [builtin_quiver("A4"), builtin_quiver("D4"), D5], ids=["A4", "D4", "D5"])
def test_lemma67_report_agrees_with_the_per_pair_oracle(quiver):
    # the report checks Lemma 6 once on the table; the oracle checks it, and
    # Lemma 7, on every exchange pair
    assert lemma67_report(quiver)["ok"] is True
    g = GammaC(quiver)
    for xd in walk_exchanges(g):
        assert all(lemma6_check(g, xd))
        assert all(is_compatible(g, x, xd) for x in range(len(g.vertices)))


@pytest.mark.parametrize("name,serre", [("A3", 51), ("D4", 152)])
def test_lemma67_catches_every_raised_hom_entry(monkeypatch, capsys, name, serre):
    # every hom_i entry raised by 1 after the build, one at a time: verify
    # lemma67 exits 1, with a Serre duality entry for the raised one or at
    # the walk's check that an exchange pair has a one dimensional extension
    # space, and the per-pair oracle fails on some edge of the clean walk
    g = GammaC(builtin_quiver(name))
    exchanges = walk_exchanges(g)
    size = len(g.vertices)
    tau2 = [g.tau_i[t] for t in g.tau_i]

    def raised(v, x):
        hom = [list(row) for row in g.hom_i]
        hom[v][x] += 1
        return tuple(map(tuple, hom))

    at = []
    init = GammaC.__init__

    def mutant_init(self, quiver):
        init(self, quiver)
        self.hom_i = raised(*at[-1])

    monkeypatch.setattr(GammaC, "__init__", mutant_init)
    caught = 0
    for v, x in itertools.product(range(size), repeat=2):
        at.append((v, x))
        assert cli.main(["verify", "lemma67", "--type", name]) == 1, (v, x)
        witness = json.loads(capsys.readouterr().out)["witness"]
        if "failures" in witness:
            entry = {
                "check": "serre duality",
                "from": g.vertices[v].render(),
                "to": g.vertices[x].render(),
                "hom": g.hom_i[v][x] + 1,
                "dual": g.hom_i[x][tau2[v]],
            }
            assert entry in witness["failures"], (v, x)
            caught += 1
        else:
            assert witness == {
                "error": "AssertionError: exchange pair does not have a one dimensional extension space"
            }
        bad = copy.copy(g)
        bad.hom_i = raised(v, x)
        assert not all(all(lemma6_check(bad, xd)) for xd in exchanges), (v, x)
    assert len(at) == size * size
    assert caught == serre


@pytest.mark.parametrize("name,failures", [("A3", 81), ("D4", 816)])
def test_lemma67_reads_middle_terms_at_every_edge(monkeypatch, name, failures):
    # an exchange that drops its first middle term fails Lemma 7 alone: the
    # Serre duality check reads the hom table and no middle term
    real = category.exchange_data

    def dropped(*args):
        xd = real(*args)
        return dataclasses.replace(xd, e=xd.e[1:])

    monkeypatch.setattr(category, "exchange_data", dropped)
    rep = lemma67_report(builtin_quiver(name))
    assert rep["ok"] is False
    assert {f["check"] for f in rep["failures"]} == {"compatibility"}
    assert len(rep["failures"]) == failures


def seed_columns(g, summands):
    """Column x of the summands' hom rows, for every vertex x, as
    theorem1_injectivity reads them, and the vertices it leaves out: the
    shift tau T of the tilting object."""
    columns = list(zip(*(g.hom_i[t] for t in summands)))
    return columns, {g.tau_i[t] for t in summands}


def test_hom_columns_on_projective_seed():
    # over the projective seed a module's column is its dimension vector;
    # the left-out shift holds the shifted projectives, whose columns are
    # all zero, so they would break injectivity if they were read
    g = GammaC(builtin_quiver("A3"))
    columns, left_out = seed_columns(g, g.proj_i)
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
    columns, left_out = seed_columns(g, g.shift_i)
    assert {g.vertices[x] for x in left_out} == {
        CVertex(injective_dims(q, i), None) for i in (1, 2, 3)
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


def widened(g, bits):
    """A copy of g whose hom entries are all shifted left by ``bits``: the
    same columns, equal and distinct alike, in wider fields."""
    wide = copy.copy(g)
    wide.hom_i = tuple(tuple(h << bits for h in row) for row in g.hom_i)
    return wide


ROUTES = ["B", "H", "I", "Q", "tuple"]


def widened_for(g, route):
    """widened(g, bits) with its n entries per column filling as much of the
    array code ``route``'s field as whole entries can, or for "tuple" just
    too wide for a 64-bit field; checked against the report's own choice."""
    n, width = g.quiver.n, max(map(max, g.hom_i)).bit_length()
    bits = 64 // n + 1 - width if route == "tuple" else 8 * array(route).itemsize // n - width
    assert bits >= 0
    assert category._column_code(n * (width + bits)) == (None if route == "tuple" else route)
    return widened(g, bits), bits


def count_tuple_route(monkeypatch):
    """The objects the report hands to its tuple route, as a growing list."""
    calls = []
    real = category._colliding_columns
    monkeypatch.setattr(category, "_colliding_columns", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize(
    "name,route",
    [
        pytest.param(name, route, id=name if route == "tuple" else f"{name}-{route}")
        for name in ("A3", "D4")
        for route in ROUTES
    ],
)
def test_theorem1_report_falls_back_on_wide_tables(monkeypatch, name, route):
    # the same columns in every field width give the same report; past 64
    # bits every object is judged by its tuple columns alone
    g = GammaC(builtin_quiver(name))
    wide, _ = widened_for(g, route)
    rep = _theorem1_report(g, walk_tilting(g))
    calls = count_tuple_route(monkeypatch)
    wide_rep = _theorem1_report(wide, walk_tilting(g))
    assert wide_rep == rep
    assert rep["injective_everywhere"] is True
    assert len(calls) == (rep["tilting_count"] if route == "tuple" else 0)


@pytest.mark.parametrize("route", ROUTES, ids=["packed", "packed-H", "packed-I", "packed-Q", "wide"])
def test_theorem1_report_names_two_colliding_columns(monkeypatch, route):
    # a copy of the A3 tables whose column y repeats column x on every row;
    # neither is in the shift of P[1], expanded first, so P[1] admits them;
    # every field width names the same collisions as the tuples do
    g = GammaC(builtin_quiver("A3"))
    start = g.shift_i
    shift = {g.tau_i[t] for t in start}
    x, y = [m for m in range(len(g.vertices)) if m not in shift][:2]
    assert [g.hom_i[t][x] for t in start] != [g.hom_i[t][y] for t in start]

    def planted(h):
        h.hom_i = tuple(row[:y] + (row[x],) + row[y + 1 :] for row in h.hom_i)
        return h

    bad, bits = widened_for(g, route)
    base = _theorem1_report(planted(widened(g, 0)), walk_tilting(g))
    calls = count_tuple_route(monkeypatch)
    rep = _theorem1_report(planted(bad), walk_tilting(g))
    assert rep["injective_everywhere"] is False
    assert rep["tilting_count"] == 14
    assert rep["failures"][0] == {
        "tilting": [g.vertices[t].render() for t in start],
        "first": g.vertices[x].render(),
        "second": g.vertices[y].render(),
        "vector": [g.hom_i[t][x] << bits for t in start],
    }
    unshifted = [{**f, "vector": [v >> bits for v in f["vector"]]} for f in rep["failures"]]
    assert {**rep, "failures": unshifted} == base
    if route == "tuple":
        assert len(calls) == 14


@pytest.mark.parametrize("name,code", [("D6", "H"), ("E6", "H"), ("E7", "I"), ("E8", "I")])
def test_theorem1_never_takes_the_tuple_route_on_d_and_e(monkeypatch, name, code):
    # the narrowest field that holds n entries of the widest hom count; a
    # field choice that fell back to the tuples would be slow, not wrong
    g = GammaC(QUIVERS[name])
    assert category._column_code(g.quiver.n * max(map(max, g.hom_i)).bit_length()) == code
    calls = count_tuple_route(monkeypatch)
    rep = _theorem1_report(g, walk_tilting(g))
    assert rep["injective_everywhere"] is True
    assert calls == []


@pytest.mark.parametrize(
    "quiver,count,cases",
    [
        (A1, 2, 2),
        (D5, 182, 18_200),
        (D6, 672, 120_960),
        (E6, 833, 179_928),
        (E7, 4160, 1_834_560),
        (linear(10), 58_786, 32_332_300),
        (type_d(9), 35_750, 23_166_000),
        pytest.param(linear(12), 742_900, 695_354_400, marks=pytest.mark.slow),
        pytest.param(type_d(11), 520_676, 630_017_960, marks=pytest.mark.slow),
    ],
    ids=["A1", "D5", "D6", "E6", "E7", "A10", "D9", "A12", "D11"],
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


@pytest.mark.parametrize(
    "quiver,tilting_objects,edges,paired",
    [
        (builtin_quiver("A2"), 5, 10, 5),
        (builtin_quiver("A3"), 14, 42, 9),
        (builtin_quiver("A4"), 42, 168, 14),
        (builtin_quiver("D4"), 50, 200, 16),
        (D5, 182, 910, 25),
        (D6, 672, 4_032, 36),
        (E6, 833, 4_998, 42),
        (E7, 4_160, 29_120, 70),
        pytest.param(E8, 25_080, 200_640, 128, marks=pytest.mark.slow),
    ],
    ids=["A2", "A3", "A4", "D4", "D5", "D6", "E6", "E7", "E8"],
)
def test_den_vs_hom_pairs_every_vertex(quiver, tilting_objects, edges, paired):
    # every edge of the exchange graph pairs its new variable with a vertex,
    # and every vertex of the category ends up paired, with its hom counts
    rep = den_vs_hom_crosscheck(quiver)
    assert rep["ok"] is True, rep["mismatches"][:3]
    assert (rep["tilting_objects"], rep["edges"], rep["paired"]) == (tilting_objects, edges, paired)
    assert paired == len(GammaC(quiver).vertices)
    assert edges == tilting_objects * quiver.n


def test_den_vs_hom_reads_one_exploration(monkeypatch):
    # one exploration and one walk; every variable is explore's, which divides
    # once per variable outside the initial cluster, and no seed is mutated
    explorations, walks, divisions = [], [], []

    def counting_explore(b, _real=category.explore_exchange_graph):
        explorations.append(b)
        return _real(b)

    def counting_walk(g, _real=category.walk_tilting):
        walks.append(g)
        return _real(g)

    def counting_div(p, q, _real=LaurentPoly.exact_div):
        divisions.append(q)
        return _real(p, q)

    def no_mutate(s, k):
        raise AssertionError("seed_mutate called")

    monkeypatch.setattr(category, "explore_exchange_graph", counting_explore)
    monkeypatch.setattr(category, "walk_tilting", counting_walk)
    monkeypatch.setattr(LaurentPoly, "exact_div", counting_div)
    monkeypatch.setattr(laurent, "seed_mutate", no_mutate)
    rep = den_vs_hom_crosscheck(builtin_quiver("A3"))
    assert rep["ok"] is True
    assert len(explorations) == len(walks) == 1
    assert len(divisions) == rep["paired"] - 3 == 6


@pytest.mark.parametrize(
    "depth,samples,name",
    [(0, 5, "depth"), (-1, None, "depth"), (-1, 5, "depth"), (3, 0, "samples"), (3, -2, "samples")],
)
def test_den_vs_hom_rejects_vacuous_sweeps(depth, samples, name):
    # the check takes only the quiver and walks the whole exchange graph: no
    # call can ask for a bounded or a sampled sweep, vacuous or not
    bound = {"depth": depth, "samples": samples}
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        den_vs_hom_crosscheck(builtin_quiver("A2"), **{name: bound[name]})
    assert list(inspect.signature(den_vs_hom_crosscheck).parameters) == ["quiver"]


def crosscheck_mutant(old, new):
    """A copy of den_vs_hom_crosscheck whose source has ``old`` replaced by
    ``new``, run in the namespace of the category module."""
    src = inspect.getsource(category.den_vs_hom_crosscheck)
    assert src.count(old) == 1
    namespace = dict(vars(category))
    exec(compile(src.replace(old, new), category.__file__, "exec"), namespace)
    return namespace["den_vs_hom_crosscheck"]


@pytest.mark.parametrize("name,count", [("A3", 6), ("D4", 12)])
def test_den_vs_hom_catches_transposed_hom(name, count):
    # hom(t, P_p) in place of hom(P_p, t): the denominators tell them apart
    rep = crosscheck_mutant("g.hom_i[p][t]", "g.hom_i[t][p]")(builtin_quiver(name))
    assert rep["ok"] is False
    assert len(rep["mismatches"]) == count
    assert {m["check"] for m in rep["mismatches"]} == {"denominator"}


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_den_vs_hom_catches_pairing_with_the_removed_summand(name):
    # the removed summand is paired already, with the variable the mutation
    # removes, so every edge clashes
    old = "pair(tk_star, made[k - 1], summands, k)"
    mutant = crosscheck_mutant(old, old.replace("tk_star", "summands[k - 1]"))
    rep = mutant(builtin_quiver(name))
    assert rep["ok"] is False
    assert len(rep["mismatches"]) == rep["edges"]
    assert {m["check"] for m in rep["mismatches"]} == {"path"}


@pytest.mark.parametrize("name,edges", [("A3", 42), ("D4", 200)])
def test_den_vs_hom_catches_a_wrong_exchange_as_a_path_clash(monkeypatch, name, edges):
    # the last edge of the walk lands on a paired vertex; a wrong polynomial
    # there disagrees with the one the vertex was paired with on another path
    quiver = builtin_quiver(name)

    def tampered(b, _real=category.explore_exchange_graph):
        res = _real(b)
        *made, last = res.mutations[-1]
        res.mutations[-1] = (*made, last + LaurentPoly.one(quiver.n))
        return res

    monkeypatch.setattr(category, "explore_exchange_graph", tampered)
    rep = den_vs_hom_crosscheck(quiver)
    assert rep["edges"] == edges
    assert rep["ok"] is False
    (clash,) = rep["mismatches"]
    assert clash["check"] == "path"
    assert clash["reached"] != clash["paired"]


@pytest.mark.parametrize(
    "tamper,position,tilting",
    [
        (lambda seeds, made: (seeds[1:], made[1:]), 0, ["SP(1)", "SP(2)", "SP(3)"]),
        (lambda seeds, made: (seeds[:-1], made[:-1]), 13, ["M(1,1,1)", "M(0,1,1)", "M(0,0,1)"]),
        (lambda seeds, made: (seeds + seeds[:1], made + made[:1]), 14, None),
    ],
    ids=["out-of-step", "walk-longer", "explore-longer"],
)
def test_den_vs_hom_catches_an_exploration_out_of_step(monkeypatch, capsys, tamper, position, tilting):
    # the walk and the exploration must expand the same matrices in the same
    # order and end together; the first object where they part is named
    def tampered(b, _real=category.explore_exchange_graph):
        res = _real(b)
        seeds, mutations = tamper(res.seeds, res.mutations)
        return dataclasses.replace(res, seeds=seeds, mutations=mutations)

    monkeypatch.setattr(category, "explore_exchange_graph", tampered)
    rep = den_vs_hom_crosscheck(builtin_quiver("A3"))
    assert rep["ok"] is False
    assert rep["tilting_objects"] == position
    assert [m for m in rep["mismatches"] if m["check"] != "unpaired"] == [
        {"check": "order", "position": position, "tilting": tilting}
    ]
    code = cli.main(["verify", "denomhom", "--type", "A3"])
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert code == 1
    assert witness[0] == {"check": "order", "position": position, "tilting": tilting}


@pytest.mark.parametrize(
    "quiver",
    [builtin_quiver("A3"), builtin_quiver("D4"), D5, pytest.param(E6, marks=pytest.mark.slow)],
    ids=["A3", "D4", "D5", "E6"],
)
def test_walk_expands_in_explore_discovery_order(quiver):
    # from P[1], the walker expands the tilting objects in the order in which
    # explore_exchange_graph discovers their clusters: the k-th object's
    # labelled matrix is the k-th seed's, and its paired variables are the
    # k-th seed's cluster
    b = exchange_matrix(quiver)
    g = GammaC(quiver)
    objects = list(walk_tilting(g))
    paired = dict(zip(g.shift_i, initial_seed(b).cluster))
    expanded = []
    for (summands, partners, _), m in zip(objects, folded_matrices(g, objects)):
        cluster = tuple(paired[t] for t in summands)
        expanded.append((m, frozenset(cluster)))
        for k, tk_star in enumerate(partners, 1):
            paired.setdefault(tk_star, seed_mutate(Seed(m, cluster), k).cluster[k - 1])
    res = explore_exchange_graph(b)
    assert expanded == [(s.b, frozenset(s.cluster)) for s in res.seeds]


def test_rejects_non_dynkin():
    with pytest.raises(ValueError):
        GammaC(builtin_quiver("Atilde21"))
