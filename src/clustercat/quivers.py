"""Quivers, exchange matrices, diagram classification and root systems.

Vertices are numbered 1..n in every public interface. Arrows are ordered
pairs (source, target); parallel arrows are allowed, loops are not. The
exchange matrix convention is b_ij = #arrows(i -> j) - #arrows(j -> i), so
b_ij > 0 means arrows from i to j.

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from pathlib import Path

__all__ = [
    "Quiver",
    "DiagramClass",
    "EulerData",
    "exchange_matrix",
    "quiver_from_matrix",
    "mutate_matrix",
    "classify_diagram",
    "positive_roots",
    "simple_reflection",
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
    A row i != k with b_ik = 0 is unchanged and is shared with the input
    when that row is a tuple.
    """
    n = len(b)
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
    """Shape of the underlying undirected diagram.

    kind is "dynkin", "affine" or "other"; label is a human-readable name
    like "A3", "D4", "E6", "A~(2,1)", "D~4".
    """

    kind: str
    label: str
    rank: int


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
    degs = sorted((len(adj[v]) for v in adj), reverse=True)
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


# ---------------------------------------------------------------------------
# root system


def simple_reflection(q: Quiver, d, k: int) -> Vector:
    """Simple reflection s_k of the Weyl group of the underlying graph:
    d_k becomes the sum of d_j over the edges k - j, minus d_k."""
    neighbours = [t if s == k else s for s, t in q.arrows if k in (s, t)]
    dk = sum(d[j - 1] for j in neighbours) - d[k - 1]
    return tuple(dk if j == k - 1 else x for j, x in enumerate(d))


@lru_cache(maxsize=None)
def positive_roots(q: Quiver) -> frozenset[Vector]:
    """Positive roots of the underlying Dynkin diagram.

    Computed as the closure of the simple roots under simple reflections,
    taken within the positive roots: s_k(d) is a positive root for every
    positive root d other than e_k, and by induction on height every
    positive root is reached this way. Raises ValueError when the diagram is
    not Dynkin ADE.
    """
    cls = classify_diagram(q)
    if cls.kind != "dynkin":
        raise ValueError(f"positive roots require a Dynkin diagram, got {cls.label}")
    n = q.n
    neighbours = [[t - 1 if s == k else s - 1 for s, t in q.arrows if k in (s, t)] for k in range(1, n + 1)]
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen: set[Vector] = set(simples)
    frontier = list(simples)
    while frontier:
        d = frontier.pop()
        for k, nb in enumerate(neighbours):
            dk = sum(d[j] for j in nb) - d[k]
            if dk != d[k] and d != simples[k]:
                r = d[:k] + (dk,) + d[k + 1 :]
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Euler form and Coxeter transformation


class EulerData:
    """Euler form and Coxeter transformation of an acyclic quiver.

    The form is <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j, which
    equals dim Hom(M, N) - dim Ext^1(M, N) for representations with
    dim M = d, dim N = e. The Coxeter matrix Phi = -E^{-1} E^T is the
    product of the simple reflections taken sinks first (Bernstein-Gelfand-
    Ponomarev) and the dimension shadow of the AR translate: Phi dim M =
    dim tau M for non-projective indecomposables and Phi dim P_i = -dim I_i;
    Phi^-1, the reflections taken sources first, plays the same role for
    the inverse translate.
    """

    def __init__(self, q: Quiver):
        if not q.is_acyclic():
            raise ValueError("Euler data requires an acyclic quiver")
        self.quiver = q
        n = q.n
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        for s, t in q.arrows:
            e[s - 1][t - 1] -= 1
        self.euler_matrix = tuple(map(tuple, e))

        def product(order) -> IntMatrix:
            # the unit vectors as columns, reflected at order[0] first
            columns = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            for k in order:
                columns = [simple_reflection(q, d, k) for d in columns]
            return tuple(zip(*columns))

        order = q.topological_order()
        self.matrix = product(order[::-1])
        self.inverse_matrix = product(order)

    def euler_form(self, d, e) -> int:
        total = 0
        em = self.euler_matrix
        for i, di in enumerate(d):
            if di:
                for j, ej in enumerate(e):
                    if ej and em[i][j]:
                        total += di * em[i][j] * ej
        return total

    def coxeter_transform(self, d) -> Vector:
        return tuple(sum(map(mul, row, d)) for row in self.matrix)

    def inverse_coxeter_transform(self, d) -> Vector:
        return tuple(sum(map(mul, row, d)) for row in self.inverse_matrix)


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
        data = json.loads(Path(source).read_text())
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
