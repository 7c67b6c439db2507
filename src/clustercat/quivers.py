"""Quivers, exchange matrices, diagram classification and root systems.

A diagram is named by its Tits form alone: ``classify_diagram`` reads the
leading principal minors of the symmetric Tits matrix, positive definite on
Dynkin diagrams and positive semidefinite of corank one on affine ones.
Every Dynkin table reads one walk, ``tau_orbits``, which is also the one place
those tables classify the diagram; the positive roots are the vectors it meets.

Vertices are numbered 1..n in every public interface. Arrows are ordered
pairs (source, target); parallel arrows are allowed, loops are not. The
exchange matrix convention is b_ij = #arrows(i -> j) - #arrows(j -> i), so
b_ij > 0 means arrows from i to j.

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "Quiver",
    "DiagramClass",
    "EulerData",
    "exchange_matrix",
    "quiver_from_matrix",
    "mutate_matrix",
    "classify_diagram",
    "positive_roots",
    "coxeter_number",
    "euler_data",
    "tau_orbits",
    "builtin_quiver",
    "BUILTIN_QUIVER_NAMES",
    "load_quiver_json",
    "quiver_to_json",
    "check_relations",
]

IntMatrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with 1-based vertices and an ordered arrow list."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("quiver needs at least one vertex")
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (1 <= s <= self.n and 1 <= t <= self.n):
                raise ValueError(f"arrow ({s},{t}) out of range 1..{self.n}")
            if s == t:
                raise ValueError(f"loop at vertex {s} not allowed")

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    def topological_order(self) -> list[int]:
        """Vertices ordered so every arrow goes forward, the smallest ready
        vertex first; raises on a cycle."""
        indeg = [0] * (self.n + 1)
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        for s, t in self.arrows:
            indeg[t] += 1
            out[s].append(t)
        ready = [v for v in range(1, self.n + 1) if indeg[v] == 0]
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for t in out[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    heapq.heappush(ready, t)
        if len(order) != self.n:
            raise ValueError("quiver has an oriented cycle")
        return order

    def is_connected(self) -> bool:
        seen = {1}
        frontier = [1]
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n


def exchange_matrix(q: Quiver) -> IntMatrix:
    """Skew-symmetric matrix b_ij = #(i->j) - #(j->i).

    A 2-cycle would cancel in b and silently turn the quiver into another
    one, so it is refused; module code still accepts such quivers.
    """
    arrows = set(q.arrows)
    for s, t in arrows:
        if (t, s) in arrows:
            raise ValueError(f"quiver has a 2-cycle between {s} and {t}; no exchange matrix")
    b = [[0] * q.n for _ in range(q.n)]
    for s, t in q.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    return tuple(tuple(row) for row in b)


def quiver_from_matrix(b) -> Quiver:
    """Quiver of a skew-symmetric integer matrix (b_ij > 0 arrows i->j)."""
    n = len(b)
    for i in range(n):
        for j in range(n):
            if b[i][j] != -b[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    arrows = []
    for i in range(n):
        for j in range(n):
            if b[i][j] > 0:
                arrows.extend([(i + 1, j + 1)] * b[i][j])
    return Quiver(n, tuple(arrows))


def mutate_matrix(b, k: int) -> IntMatrix:
    """Matrix mutation at vertex k (1-based).

    b'_ij = -b_ij when i = k or j = k, otherwise
    b'_ij = b_ij + [b_ik]_+ [b_kj]_+ - [-b_ik]_+ [-b_kj]_+.
    b is m x n with m >= n: rows past n are coefficient rows, so k ranges
    over the n columns. A row i != k with b_ik = 0 is unchanged and is
    shared with the input when that row is a tuple.
    """
    n = len(b[0]) if b else 0
    if not (1 <= k <= n):
        raise IndexError(f"mutation vertex {k} out of range 1..{n}")
    kk = k - 1
    bk = b[kk]
    out = []
    for i, bi in enumerate(b):
        c = bi[kk]
        if i == kk:
            row = [-x for x in bi]
        elif not c:
            row = bi
        else:
            # b_ij moves only where b_ik and b_kj share a sign, by |b_ik| b_kj
            a = abs(c)
            row = [x + a * y if c * y > 0 else x for x, y in zip(bi, bk)]
            row[kk] = -c
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# diagram classification


@dataclass(frozen=True)
class DiagramClass:
    """Type of the underlying undirected diagram, read off its Tits form.

    kind is "dynkin" (positive definite), "affine" (positive semidefinite of
    corank one) or "other"; label is a human-readable name like "A3", "D4",
    "E6", "A~(2,1)", "D~4"; rank is n, or n - 1 for an affine diagram.
    """

    kind: str
    label: str
    rank: int


def _cycle_orientation_split(q: Quiver) -> tuple[int, int]:
    # Walk the unique cycle from vertex 1 one arrow at a time, using each
    # arrow once (two parallel arrows are two steps), and count the arrows
    # agreeing/disagreeing with the walk direction. Returns (p, q), p >= q.
    unused = list(q.arrows)
    v, along = 1, 0
    while unused:
        s, t = next(a for a in unused if v in a)
        unused.remove((s, t))
        along += s == v
        v = t if s == v else s
    against = len(q.arrows) - along
    return (max(along, against), min(along, against))


def classify_diagram(q: Quiver) -> DiagramClass:
    """Classify the underlying diagram as Dynkin ADE, affine, or other.

    The symmetric Tits matrix C = 2I - A, with A_ij the number of arrows
    between i and j, is positive definite exactly on the Dynkin diagrams and
    positive semidefinite of corank one exactly on the affine ones, whose
    proper subdiagrams are Dynkin (Gabriel 1972). One fraction-free (Bareiss)
    pass reads C's leading principal minors and stops at the first that is
    not positive. det C names a Dynkin diagram: n + 1 for A_n, 4 for D_n and
    9 - n for E_n. An affine one is A~ when it has as many arrows as
    vertices, E~ when it is a tree on 7 or more vertices with one branch
    vertex, and D~ otherwise. Raises ValueError on a disconnected quiver.
    """
    if not q.is_connected():
        raise ValueError("diagram is disconnected")
    n = q.n
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for s, t in q.arrows:
        c[s - 1][t - 1] -= 1
        c[t - 1][s - 1] -= 1
    prev = 1
    for k in range(n - 1):
        pivot = c[k][k]  # the leading principal minor of order k + 1
        if pivot <= 0:
            return DiagramClass("other", "other", n)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                c[i][j] = (c[i][j] * pivot - c[i][k] * c[k][j]) // prev
        prev = pivot
    det = c[-1][-1]
    if det > 0:
        label = f"A{n}" if det == n + 1 else f"D{n}" if det == 4 else f"E{n}"
        return DiagramClass("dynkin", label, n)
    if det < 0:
        return DiagramClass("other", "other", n)
    if len(q.arrows) == n:
        p, qq = _cycle_orientation_split(q)
        return DiagramClass("affine", f"A~({p},{qq})", n - 1)
    degrees = Counter(v for arrow in q.arrows for v in arrow)
    branch_vertices = sum(d >= 3 for d in degrees.values())
    label = f"E~{n - 1}" if n >= 7 and branch_vertices == 1 else f"D~{n - 1}"
    return DiagramClass("affine", label, n - 1)


# ---------------------------------------------------------------------------
# Euler form, Coxeter transformation and the tau-orbits


def coxeter_number(diagram: DiagramClass) -> int:
    """Coxeter number h of a Dynkin diagram of rank n, which has nh/2 positive roots."""
    if diagram.kind != "dynkin":
        raise ValueError(f"Coxeter number needs a Dynkin diagram, got {diagram.label}")
    n = diagram.rank
    return {"A": n + 1, "D": 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get(n)}[diagram.label[0]]


class EulerData:
    """Euler form, Coxeter transformation and projectives of an acyclic quiver.

    The form is <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j, which is
    dim Hom(M, N) - dim Ext^1(M, N) for dim M = d, dim N = e; <d, d> is the
    Tits form. The Coxeter matrix Phi = -E^{-1} E^T is the product of the
    simple reflections (s_k sets d_k to the sum of d_j over the edges k - j,
    minus d_k) taken sinks first (Bernstein-Gelfand-Ponomarev) and the
    dimension shadow of the AR translate: Phi dim M = dim tau M for
    non-projective indecomposables and Phi dim P_i = -dim I_i; Phi^-1, the
    reflections taken sources first, does the same for tau^-1.
    ``projectives[i - 1]`` is dim P_i."""

    def __init__(self, q: Quiver):
        if not q.is_acyclic():
            raise ValueError("Euler data requires an acyclic quiver")
        n = q.n
        self._arrows = [(s - 1, t - 1) for s, t in q.arrows]
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        for s, t in self._arrows:
            e[s][t] -= 1
        self.euler_matrix = tuple(map(tuple, e))
        neighbours = [[t if s == k else s for s, t in self._arrows if k in (s, t)] for k in range(n)]

        def product(order) -> IntMatrix:
            # the unit vectors as columns, reflected at order[0] first
            columns = [[int(i == j) for i in range(n)] for j in range(n)]
            for k in order:
                for d in columns:
                    d[k] = sum(d[j] for j in neighbours[k]) - d[k]
            return tuple(zip(*columns))

        order = [v - 1 for v in q.topological_order()]
        self.matrix = product(order[::-1])
        self.inverse_matrix = product(order)
        # P_i has the trivial path at i and a path from j for each arrow i -> j
        proj: list[Vector] = [()] * n
        for i in reversed(order):
            heads = [proj[t] for s, t in self._arrows if s == i]
            proj[i] = tuple(map(sum, zip(*heads, [int(i == j) for j in range(n)])))
        self.projectives = tuple(proj)

    def euler_form(self, d, e) -> int:
        return sum(map(mul, d, e)) - sum(d[s] * e[t] for s, t in self._arrows)

    def coxeter_transform(self, d) -> Vector:
        return tuple(sum(map(mul, row, d)) for row in self.matrix)

    def inverse_coxeter_transform(self, d) -> Vector:
        return tuple(sum(map(mul, row, d)) for row in self.inverse_matrix)


euler_data = lru_cache(maxsize=None)(EulerData)  # one EulerData per quiver


class TauOrbits(NamedTuple):
    """``rows[i - 1]`` holds dim tau^-k P_i for k = 0, 1, ... up to an
    injective I_j, and ``ends[i - 1]`` is that j."""

    diagram: DiagramClass
    rows: tuple[tuple[Vector, ...], ...]
    ends: tuple[int, ...]


@lru_cache(maxsize=None)
def tau_orbits(q: Quiver) -> TauOrbits:
    """The indecomposables of a Dynkin quiver as the tau^-1-orbits of its
    projectives, each fixed by a positive root as its dimension vector
    (Gabriel 1972; Bernstein-Gelfand-Ponomarev 1973). Row i steps from dim P_i
    by Phi^-1 through vectors of Tits form 1 up to an injective I_j, whose
    Phi^-1 image must be -dim P_j (tau^-1 I_j = P_j[1] in the cluster
    category). The rows meet n h / 2 modules once each (h the Coxeter number),
    and Phi Phi^-1 = 1 (so Phi steps back along every orbit, whose vectors
    span Z^n). Raises ValueError unless q is Dynkin ADE."""
    diagram = classify_diagram(q)
    if diagram.kind != "dynkin":
        raise ValueError(f"tau-orbits need a Dynkin quiver, got {diagram.label}")
    n, ed = q.n, euler_data(q)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if list(map(ed.coxeter_transform, zip(*ed.inverse_matrix))) != unit:
        raise AssertionError("translate disagrees with the matrix transform")
    proj_of = {p: j for j, p in enumerate(ed.projectives, 1)}
    rows, ends = [], []
    for d in ed.projectives:
        row = [d]
        while min(d) >= 0:
            if ed.euler_form(d, d) != 1:
                raise AssertionError("orbit walk left the root system")
            row.append(d := ed.inverse_coxeter_transform(d))
        if (j := proj_of.get(tuple(-x for x in row.pop()))) is None:
            raise AssertionError("orbit walk ended off the projectives")
        rows.append(tuple(row))
        ends.append(j)
    modules = {d for row in rows for d in row}
    if len(modules) != sum(map(len, rows)) or len(set(ends)) != n:
        raise AssertionError("orbit walk met a vertex twice")
    if len(modules) != n * coxeter_number(diagram) // 2:
        raise AssertionError("orbit walk missed some modules")
    return TauOrbits(diagram, tuple(rows), tuple(ends))


@lru_cache(maxsize=None)
def positive_roots(q: Quiver) -> frozenset[Vector]:
    """Positive roots of a Dynkin quiver: the dimension vectors on its
    tau-orbits. Raises ValueError when the diagram is not Dynkin ADE."""
    return frozenset(d for row in tau_orbits(q).rows for d in row)


# ---------------------------------------------------------------------------
# named quivers and file formats

BUILTIN_QUIVER_NAMES = ("A2", "A3", "A4", "D4", "Atilde21")


def builtin_quiver(name: str) -> Quiver:
    """Named quivers used throughout the test surface.

    A2/A3/A4 are linearly ordered 1 -> 2 -> ... -> n; D4 is the 3-branch
    star with center 2 (arrows 1->2, 2->3, 2->4); Atilde21 is the acyclic
    affine triangle 1->2, 2->3, 1->3.
    """
    key = name.strip()
    if key in ("A2", "A3", "A4"):
        n = int(key[1])
        return Quiver(n, tuple((i, i + 1) for i in range(1, n)))
    if key == "D4":
        return Quiver(4, ((1, 2), (2, 3), (2, 4)))
    if key == "Atilde21":
        return Quiver(3, ((1, 2), (2, 3), (1, 3)))
    raise KeyError(f"unknown quiver name {name!r}; known: {', '.join(BUILTIN_QUIVER_NAMES)}")


def _json_int(value, what: str) -> int:
    # bool is an int subclass, and a float or string is never read as a count
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def load_quiver_json(source) -> tuple[Quiver, tuple[tuple[int, ...], ...]]:
    """Read a quiver (and optional monomial relations) from JSON.

    Format: {"vertices": n, "arrows": [[s, t], ...], "relations": [...]},
    vertices 1-based, each relation a list of 0-based arrow indices forming
    a path. Returns (quiver, relations).
    """
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except RecursionError:
            raise ValueError("quiver JSON is nested too deeply") from None
    else:
        data = source
    if not isinstance(data, dict) or "vertices" not in data or "arrows" not in data:
        raise ValueError("quiver JSON needs 'vertices' and 'arrows'")
    arrows, relations = data["arrows"], data.get("relations", [])
    if not isinstance(arrows, list) or any(
        not isinstance(a, list) or len(a) != 2 for a in arrows
    ):
        raise ValueError("'arrows' must be a list of [source, target] pairs")
    if not isinstance(relations, list) or any(not isinstance(r, list) for r in relations):
        raise ValueError("'relations' must be a list of lists of arrow indices")
    n = _json_int(data["vertices"], "'vertices'")
    q = Quiver(n, tuple(tuple(_json_int(v, "an arrow endpoint") for v in a) for a in arrows))
    relations = tuple(
        tuple(_json_int(i, "a relation index") for i in rel) for rel in relations
    )
    check_relations(q, relations)
    return q, relations


def check_relations(q: Quiver, relations) -> None:
    """Raise ValueError unless the relations are distinct paths of at least
    two composable arrows of q, each a tuple of 0-based arrow indices."""
    for rel in relations:
        if len(rel) < 2 or any(not 0 <= a < len(q.arrows) for a in rel):
            raise ValueError(f"zero relation {list(rel)} needs two or more known arrows")
        if any(q.arrows[a][1] != q.arrows[b][0] for a, b in zip(rel, rel[1:])):
            raise ValueError(f"relation {list(rel)} is not a composable path")
    if len(set(map(tuple, relations))) != len(relations):
        raise ValueError(f"duplicate relation in {[list(r) for r in relations]}")


def quiver_to_json(q: Quiver, relations=()) -> dict:
    out = {"vertices": q.n, "arrows": [[s, t] for s, t in q.arrows]}
    if relations:
        out["relations"] = [list(r) for r in relations]
    return out
