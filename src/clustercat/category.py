"""The cluster category of a Dynkin quiver as a finite translation quiver.

Indecomposables are the quiver's indecomposable modules together with one
shifted projective per vertex. The inverse-translate orbit of each projective
P_i up to an injective I_j (a row of ``quivers.tau_orbits``), and one step on
to P_j[1] = tau^-1 I_j, meets every vertex once; tau is the step back, with
tau P_i = P_i[1]. Every vertex is a translate of a projective, and Hom(P_i, Y)
is entry i of dim Y at a module Y and 0 at a shifted projective
(Buan-Marsh-Reineke-Reiten-Todorov 2006), so no hom dimension is knitted;
ext1 is checked symmetric, as the category is 2-Calabi-Yau (Keller 2005),
and Lemma 6 is checked as the Serre duality hom(x, y) = hom(y, tau^2 x).

Everything here is exact integer combinatorics on dimension vectors, and
nothing is imported from the module layer (``reps``): the representation
theory of the same numbers lives in the test suite as an independent check.

Once ``GammaC`` is built, vertex ids are the only currency: a tilting
object is a tuple of summand ids, its key an int bitmask of them, and
exchange data hold ids with multiplicities. The walk keeps no objects and
no exchange matrices; a reader that needs an object's matrix mutates its
origin's once. ``CVertex`` is the label of a vertex, read back through
``g.vertices`` when a report is written.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, count, product
from operator import and_, getitem, itemgetter, or_
from typing import Iterable, Iterator

from .laurent import explore_exchange_graph
from .quivers import Quiver, exchange_matrix, mutate_matrix, tau_orbits

__all__ = [
    "CVertex",
    "ExchangeData",
    "GammaC",
    "NoComplement",
    "MultipleComplements",
    "exchange_data",
    "walk_tilting",
    "is_compatible",
    "lemma67_report",
    "theorem1_injectivity",
    "den_vs_hom_crosscheck",
]


class NoComplement(RuntimeError):
    """No second completion of an almost complete tilting object: engine bug."""


class MultipleComplements(RuntimeError):
    """More than two completions found: engine bug."""


@dataclass(frozen=True)
class CVertex:
    """Indecomposable object: a module (by dimension vector, which pins the
    isomorphism class in Dynkin type) or the shift of a projective."""

    dims: tuple[int, ...] | None
    shift_vertex: int | None

    def __post_init__(self):
        if (self.dims is None) == (self.shift_vertex is None):
            raise ValueError("exactly one of dims and shift_vertex must be set")

    @property
    def is_module(self) -> bool:
        return self.dims is not None

    def render(self) -> str:
        if self.is_module:
            return "M(" + ",".join(str(d) for d in self.dims) + ")"
        return f"SP({self.shift_vertex})"

    def __repr__(self):
        return self.render()


@dataclass(frozen=True)
class ExchangeData:
    """An exchange pair of vertex ids with the middle terms of its two
    triangles, each a tuple of (id, multiplicity) pairs sorted by id."""

    tk: int
    tk_star: int
    e: tuple[tuple[int, int], ...]
    e_prime: tuple[tuple[int, int], ...]


def zero_mask(row: bytes) -> int:
    """Bitmask with bit j set iff ``row[j]`` is 0."""
    return int(row.translate(b"1" + b"0" * 255)[::-1], 2)


class GammaC:
    """Translation quiver of the cluster category, with a full hom table on
    vertex ids (a vertex's id is its position in ``vertices``: the modules by
    dimension vector, then P_1[1]..P_n[1]): ``hom_i[x][y]``, the translation
    ``tau_i``, and ``ext_free[x]``, bit y set iff ext1(x, y) = ext1(y, x) = 0,
    from byte rows.
    ``proj_i[i - 1]`` and ``shift_i[i - 1]`` are the ids of the projective at
    quiver vertex i and of its shift.

    The vertices are read off the rows of ``quivers.tau_orbits``: row i runs
    from P_i up to an injective I_j and goes on to P_j[1] = tau^-1 I_j; its
    vertex k steps along is tau^-k P_i, and tau is the step back, with tau P_i
    = P_i[1]. P_i's hom row holds entry i of every module's dimension vector
    and 0 at the shifted projectives, so the row of tau^-k P_i is P_i's row
    read at tau^k of each target. The build also checks that ext1(x, y) =
    hom(x, tau y) equals ext1(y, x) for every pair."""

    def __init__(self, quiver: Quiver):
        orbits = tau_orbits(quiver)
        self.quiver, self.diagram, n = quiver, orbits.diagram, quiver.n
        orbit: dict = {}  # key -> (k, i): tau^-k P_i, keyed by its dimension vector, or -j for P_j[1]
        tau: dict = {}  # key -> key of its translate
        for i, (row, j) in enumerate(zip(orbits.rows, orbits.ends), 1):
            row = [*row, -j]
            orbit.update((v, (k, i)) for k, v in enumerate(row))
            tau.update(zip(row, [-i, *row]))
        modules = sorted(v for v in orbit if isinstance(v, tuple))
        keys = modules + list(range(-1, -n - 1, -1))
        at = {v: x for x, v in enumerate(keys)}
        labels = [CVertex(d, None) for d in modules] + [CVertex(None, j) for j in range(1, n + 1)]
        self.vertices: tuple[CVertex, ...] = tuple(labels)
        self.proj_i: tuple[int, ...] = tuple(at[row[0]] for row in orbits.rows)
        self.shift_i: tuple[int, ...] = tuple(range(len(modules), len(keys)))
        self.tau_i: tuple[int, ...] = tuple(at[tau[v]] for v in keys)
        if len(set(self.tau_i)) != len(self.tau_i):
            raise AssertionError("translation is not a bijection")

        # Hom(P_i, y) is entry i of dim y at a module y and 0 at a shifted
        # projective; Hom(tau^-k P_i, y) = Hom(P_i, tau^k y)
        at_tau = itemgetter(*self.tau_i)
        tau_k = [tuple(range(len(self.vertices)))]
        for _ in range(max(map(len, orbits.rows))):  # the deepest k in any orbit
            tau_k.append(at_tau(tau_k[-1]))
        at_tau_k = [itemgetter(*t) for t in tau_k]
        proj_rows = [(), *(col + (0,) * n for col in zip(*modules))]
        self.hom_i: tuple[tuple[int, ...], ...] = tuple(
            at_tau_k[k](proj_rows[i]) for k, i in map(orbit.get, keys)
        )
        # ext1(x, y) = hom(x, tau y) = ext1(y, x) by 2-Calabi-Yau duality
        ext = list(map(at_tau, self.hom_i))
        if ext != list(zip(*ext)):
            x, y = next((x, y) for x, row in enumerate(ext) for y, e in enumerate(row) if e != ext[y][x])
            pair = f"{self.vertices[x].render()}, {self.vertices[y].render()}"
            raise AssertionError(f"ext1 is not symmetric at ({pair}): {ext[x][y]} against {ext[y][x]}")
        self.ext_free: tuple[int, ...] = tuple(zero_mask(bytes(row)) for row in ext)
        self._check_rigidity()

    def _check_rigidity(self):
        for x, v in enumerate(self.vertices):
            if self.hom_i[x][x] != 1:
                raise AssertionError(f"{v.render()} is not a brick")
            if self.hom_i[x][self.tau_i[x]] != 0:
                raise AssertionError(f"{v.render()} is not rigid")


# ---------------------------------------------------------------------------
# tilting objects and mutation


def exchange_data(summands: tuple[int, ...], b, k: int, tk_star: int) -> ExchangeData:
    """The exchange of summand k for its partner ``tk_star``, with the middle
    terms of its two triangles read off column k of the object's matrix b."""
    col = [row[k - 1] for row in b]
    e = tuple(sorted((x, c) for x, c in zip(summands, col) if c > 0))
    e_prime = tuple(sorted((x, -c) for x, c in zip(summands, col) if c < 0))
    return ExchangeData(summands[k - 1], tk_star, e, e_prime)


def walk_tilting(g: GammaC) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, int] | None]]:
    """Breadth-first walk over every tilting object from the shifted
    projective generator P[1] = ``g.shift_i``, whose summand P_i[1] stands for
    the initial cluster variable x_i, yielding each object once as
    ``(summands, partners, origin)``: its summand ids, the exchange partner of
    its summand k at ``partners[k - 1]``, so its mutation edges are
    ``enumerate(partners, 1)``, and ``(position, k)`` when it is the mutation
    at k of the object yielded at that position, or None for P[1].

    The objects come out in the order in which ``explore_exchange_graph``
    discovers their clusters. The mask of the summands other than k is the
    AND of a prefix and a suffix of their ext_free masks: one reversed pass
    takes the suffixes, started from the vertices outside the object, and the
    loop carries the prefix, so 3n ANDs per object. Every edge checks that its
    partner is unique and has a one dimensional extension space with the
    summand, and derives the next key by XOR; only a key not seen before is
    queued. The walk holds no matrix: P[1]'s is ``exchange_matrix(g.quiver)``
    and every other object's is one ``mutate_matrix`` of its origin's, and an
    edge's exchange data is ``exchange_data(summands, b, k, tk_star)``, for
    the readers that keep them.
    """
    start = reduce(or_, (1 << x for x in g.shift_i), 0)
    seen = {start}
    queue = deque([(g.shift_i, start, None)])
    full = (1 << len(g.vertices)) - 1
    ext_free, hom_i, tau_i = g.ext_free.__getitem__, g.hom_i, g.tau_i
    position = 0
    while queue:
        summands, key, origin = queue.popleft()
        masks = list(map(ext_free, summands))
        suffix = list(accumulate(reversed(masks[1:]), and_, initial=full & ~key))
        suffix.reverse()  # suffix[k - 1]: AND of masks[k:], outside the object
        before = full  # AND of masks[:k - 1]
        partners = []
        for k, tk, own, after in zip(count(1), summands, masks, suffix):
            mask = before & after
            before &= own
            if not mask:
                raise NoComplement(f"no exchange partner for {g.vertices[tk].render()}")
            if mask & (mask - 1):
                raise MultipleComplements(f"{mask.bit_count()} partners for {g.vertices[tk].render()}")
            tk_star = mask.bit_length() - 1
            if hom_i[tk][tau_i[tk_star]] != 1:
                raise AssertionError("exchange pair does not have a one dimensional extension space")
            partners.append(tk_star)
            nkey = key ^ (1 << tk) ^ mask
            if nkey not in seen:
                seen.add(nkey)
                queue.append((summands[: k - 1] + (tk_star,) + summands[k:], nkey, (position, k)))
        yield summands, tuple(partners), origin
        position += 1


# ---------------------------------------------------------------------------
# compatibility: Lemmas 6 and 7


def is_compatible(g: GammaC, x: int, xd: ExchangeData) -> bool:
    """Either vertex x is the desuspension of one of the pair, or the hom
    count to the pair matches the larger of the hom counts to the two middle
    terms."""
    if g.tau_i[x] in (xd.tk, xd.tk_star):
        return True
    row = g.hom_i[x]
    lhs = row[xd.tk] + row[xd.tk_star]
    return lhs == max(sum(c * row[v] for v, c in mid) for mid in (xd.e, xd.e_prime))


def lemma67_report(quiver: Quiver) -> dict:
    """Lemmas 6 and 7, and Theorem 1's propagation, over one walk of the
    tilting objects of one ``GammaC``; each object's matrix is one
    ``mutate_matrix`` of its origin's. Lemma 7 is ``is_compatible`` at every
    vertex of every edge. Lemma 6 compares hom(t, x) in the dual criterion
    with hom(x, tau^2 t) in the criterion for the pair shifted by tau twice,
    for t in the pair and its middle terms, and x = tau t iff tau x = tau^2 t;
    so it holds on every pair once hom(v, x) = hom(x, tau^2 v) for all v and
    x, which is Serre duality in the 2-Calabi-Yau category, checked once."""
    g = GammaC(quiver)
    hom, vertices = g.hom_i, g.vertices
    tau2 = [g.tau_i[t] for t in g.tau_i]
    ids = range(len(vertices))
    failures = []
    for v, x in product(ids, ids):
        if hom[v][x] != hom[x][tau2[v]]:
            pair = {"from": vertices[v].render(), "to": vertices[x].render()}
            failures.append({"check": "serre duality", **pair, "hom": hom[v][x], "dual": hom[x][tau2[v]]})
    objects, matrices = list(walk_tilting(g)), []
    for summands, partners, origin in objects:
        b = exchange_matrix(quiver) if origin is None else mutate_matrix(matrices[origin[0]], origin[1])
        matrices.append(b)
        for k, tk_star in enumerate(partners, 1):
            xd = exchange_data(summands, b, k, tk_star)
            for x in ids:
                if not is_compatible(g, x, xd):
                    where = {"tilting": [vertices[t].render() for t in summands], "k": k}
                    failures.append({**where, "object": vertices[x].render(), "check": "compatibility"})
    prop = _theorem1_report(g, objects)
    failures += prop["failures"]
    return {
        "diagram": g.diagram.label,
        "tilting_objects": len(objects),
        "compatibility_cases": len(objects) * quiver.n * len(vertices),
        "propagation_cases": prop["propagation_cases"],
        "ok": not failures,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Theorem 1


def theorem1_injectivity(quiver: Quiver) -> dict:
    """Sweep every tilting object: distinct admissible objects have distinct
    dimension vectors. ``propagation_cases`` counts the admissible objects
    over every mutation.

    The propagation step: if m avoids the shift of the tilting object and the
    mutation replaces summand k, then m either equals the shift of the new
    summand or still avoids the shift of the mutated tilting object, and its
    dimension vector there is well defined. A mutation changes one summand
    and tau is a bijection, so this holds for every case it counts.
    """
    g = GammaC(quiver)
    return _theorem1_report(g, walk_tilting(g))


def _theorem1_report(g: GammaC, objects: Iterable[tuple]) -> dict:
    """The report of ``theorem1_injectivity`` over the tilting objects of a
    walk of g, for callers that walk g for checks of their own as well; each
    object stands for its n mutations. Column m is m's dimension vector,
    packed with the others in fields of one int, each field the narrowest
    ``array`` item that holds n entries. The V columns take
    V - |shifted| + |{columns at shifted}| values iff the admissible ones are
    distinct and unlike those; else, or with no field wide enough, the tuples
    decide."""
    tau_i, hom_i, n, size = g.tau_i, g.hom_i, g.quiver.n, len(g.vertices)
    width = max(map(max, hom_i)).bit_length()
    code, byteorder = _column_code(n * width), sys.byteorder
    if code:
        packed = [int.from_bytes(array(code, row).tobytes(), byteorder) for row in hom_i]
        # placed[j][t]: row t packed, moved to summand j's bits
        placed = [[p << (width * j) for p in packed] for j in range(n)]
        nbytes = size * array(code).itemsize
    checked_tiltings = lemma7_cases = 0
    failures: list[dict] = []
    for summands, _, _ in objects:
        checked_tiltings += 1
        shifted = {tau_i[t] for t in summands}
        if code:
            cols = memoryview(sum(map(getitem, placed, summands)).to_bytes(nbytes, byteorder)).cast(code)
            distinct = len(set(cols)) == size - len(shifted) + len(set(map(cols.__getitem__, shifted)))
        if not code or not distinct:
            failures += _colliding_columns(g, summands, shifted)
        # each mutation changes one summand tk -> tk_star and tau is a
        # bijection, so only tau(tk_star) can enter the shifted summands:
        # nothing to check
        lemma7_cases += n * (size - len(shifted))
    return {
        "diagram": g.diagram.label,
        "vertices": len(g.vertices),
        "tilting_count": checked_tiltings,
        "injective_everywhere": not failures,
        "propagation_cases": lemma7_cases,
        "failures": failures,
    }


def _column_code(bits: int) -> str | None:
    """The narrowest ``array`` code whose items hold ``bits`` bits; None
    past 64."""
    return next((code for code in "BHIQ" if bits <= 8 * array(code).itemsize), None)


def _colliding_columns(g: GammaC, summands: tuple[int, ...], shifted: set[int]) -> list[dict]:
    """Theorem 1 on one tilting object by its tuple columns: a failure for
    each admissible vertex whose column repeats an earlier admissible one."""
    columns = list(zip(*(g.hom_i[t] for t in summands)))
    first: dict[tuple[int, ...], int] = {}
    failures = []
    for m in range(len(g.vertices)):
        if m in shifted:
            continue
        vec = columns[m]
        if first.setdefault(vec, m) != m:
            failures.append(
                {
                    "tilting": [g.vertices[t].render() for t in summands],
                    "first": g.vertices[first[vec]].render(),
                    "second": g.vertices[m].render(),
                    "vector": list(vec),
                }
            )
    return failures


# ---------------------------------------------------------------------------
# denominators against hom counts


def den_vs_hom_crosscheck(quiver: Quiver) -> dict:
    """Pair every vertex with a cluster variable along one walk of the
    tilting objects, and compare its denominator with its hom counts.

    The walk from P[1] expands the objects in the order in which one
    ``explore_exchange_graph`` finds their seeds; an object whose matrix is
    not its seed's, or a walk and an exploration of different lengths, is an
    ``order`` mismatch that ends the walk. The object's matrix is the quiver's
    at P[1], and otherwise the matrix of the seed at its origin's position,
    checked already, mutated at the origin's k. Each object pairs its
    summands with its seed's cluster, and each edge pairs ``tk_star`` with the
    variable that explore's mutation of that seed at k made; a vertex already
    paired with another polynomial is a ``path`` mismatch. The walk takes
    every edge of the exchange graph, so this covers every mutation sequence.
    Then every vertex must be paired, and the denominator vector of its
    variable must be its hom counts (hom(P_p, t))_p from the projectives, or
    -e_j at P_j[1].
    """
    g = GammaC(quiver)
    b0 = exchange_matrix(quiver)
    res = explore_exchange_graph(b0)
    expansions = [*zip(res.seeds, res.mutations), (None, ())]  # the last marks explore's end
    paired, mismatches = {}, []
    tilting_objects = edges = 0

    def render(summands):
        return [g.vertices[t].render() for t in summands]

    def pair(t, x, summands, k):
        first = paired.setdefault(t, x)
        if first != x:
            where = {"summand": g.vertices[t].render(), "tilting": render(summands), "k": k}
            mismatches.append({"check": "path", **where, "paired": first.render(), "reached": x.render()})

    for summands, partners, origin in walk_tilting(g):
        s, made = expansions[tilting_objects]
        b = b0 if origin is None else mutate_matrix(expansions[origin[0]][0].b, origin[1])
        if s is None or s.b != b:
            mismatches.append({"check": "order", "position": tilting_objects, "tilting": render(summands)})
            break
        tilting_objects += 1
        for j, (t, x) in enumerate(zip(summands, s.cluster), 1):
            pair(t, x, summands, j)
        for k, tk_star in enumerate(partners, 1):
            edges += 1
            pair(tk_star, made[k - 1], summands, k)
    else:
        if expansions[tilting_objects][0] is not None:  # explore found more seeds than the walk
            mismatches.append({"check": "order", "position": tilting_objects, "tilting": None})
    for t, v in enumerate(g.vertices):
        if t not in paired:
            mismatches.append({"check": "unpaired", "summand": v.render()})
            continue
        den = paired[t].denominator_vector()
        if v.is_module:
            want = tuple(g.hom_i[p][t] for p in g.proj_i)
        else:
            want = tuple(-(j == v.shift_vertex) for j in range(1, quiver.n + 1))
        if den != want:
            got = {"summand": v.render(), "variable": paired[t].render(), "denominator": list(den)}
            mismatches.append({"check": "denominator", **got, "hom_vector": list(want)})
    return {
        "diagram": g.diagram.label,
        "tilting_objects": tilting_objects,
        "edges": edges,
        "paired": len(paired),
        "ok": not mismatches,
        "mismatches": mismatches,
    }
