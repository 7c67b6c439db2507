"""Modules over path algebras of quivers and their monomial quotients.

A module assigns a finite-dimensional Q-vector space to each vertex and a
matrix to each arrow; the matrix of an arrow s -> t has shape
dims[t] x dims[s] and acts on column vectors; its entries are ints, with a
Fraction only where a value is not integral. One class, Representation,
serves every algebra: a bare Quiver stands for its path algebra, a
MonomialAlgebra with no relations. Hom spaces are computed as kernels of the
commuting-square system, which relations do not change. Ext^1 over every
algebra is the first cohomology of one small complex (vertices -> arrows ->
relations), whose first map is that same system; without relations it is
dim Hom minus the Euler form. The indecomposables of a Dynkin quiver are
built once per quiver, never by guessing matrices: one cached walk of the
tau^-1-orbits of the projectives with reflection functors, so every one of
them is preinjective. The AR translates, the preinjectivity search and the
isomorphism test are test oracles and live with the tests.

Modules are immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from . import linalg
from .quivers import EulerData, Quiver, builtin_quiver, check_relations, positive_roots

__all__ = [
    "MonomialAlgebra",
    "Representation",
    "HomSpace",
    "NegativeExtError",
    "euler_data",
    "hom",
    "hom_space",
    "ext1_dim",
    "projective_dims",
    "injective_dims",
    "indecomposable_from_root",
    "atilde21_tube_modules",
]


class NegativeExtError(AssertionError):
    """Internal failure: the Ext formula went negative."""


Matrix = linalg.Matrix


@dataclass(frozen=True)
class MonomialAlgebra:
    """Path algebra of a quiver modulo a set of zero-relation paths.

    The quiver may contain oriented cycles; the relations must make every
    long path vanish so that the algebra stays finite dimensional. Paths
    compose left to right: the path (a, b) means arrow a followed by arrow b
    and acts on a module as the matrix product mat(b) @ mat(a).
    """

    quiver: Quiver
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_relations(self.quiver, self.relations)
        object.__setattr__(self, "relations", tuple(tuple(r) for r in self.relations))

    def _dies(self, path: tuple[int, ...]) -> bool:
        # only suffixes can become zero when a path grows by one arrow
        return any(path[-len(r):] == r for r in self.relations if len(r) <= len(path))

    @property
    def paths(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return self._all_paths()

    @lru_cache(maxsize=None)
    def _all_paths(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        arrows = self.quiver.arrows
        # whether a path survives one more arrow depends only on its state,
        # its end and its last keep arrows; a surviving path that returns to
        # the state of one of its prefixes can pump the cycle between them
        # forever, and a path that repeats no state is bounded in length
        keep = max(map(len, self.relations), default=1) - 1
        out: list[tuple[int, tuple[int, ...]]] = []
        for start in range(1, self.quiver.n + 1):
            layer = [((), frozenset({(start, ())}))]
            out.append((start, ()))
            while layer:
                nxt = []
                for p, seen in layer:
                    end = start if not p else arrows[p[-1]][1]
                    for idx, (s, t) in enumerate(arrows):
                        cand = p + (idx,)
                        if s != end or self._dies(cand):
                            continue
                        state = (t, cand[-keep:] if keep else ())
                        if state in seen:
                            raise ValueError(
                                "paths keep growing; the relations do not bound the algebra"
                            )
                        nxt.append((cand, seen | {state}))
                        out.append((start, cand))
                layer = nxt
        return tuple(out)

    @property
    def dimension(self) -> int:
        return len(self.paths)

    def path_end(self, start: int, path: tuple[int, ...]) -> int:
        return start if not path else self.quiver.arrows[path[-1]][1]

    @lru_cache(maxsize=None)
    def basis_from(self, start: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Basis paths starting at ``start`` grouped by end vertex (0-based tuple
        index), each group sorted by length then lexicographically."""
        groups: list[list[tuple[int, ...]]] = [[] for _ in range(self.quiver.n)]
        for s, p in self.paths:
            if s == start:
                groups[self.path_end(s, p) - 1].append(p)
        return tuple(tuple(sorted(g, key=lambda p: (len(p), p))) for g in groups)


@lru_cache(maxsize=None)
def _path_algebra(q: Quiver) -> MonomialAlgebra:
    # all modules over one quiver share one algebra object, which keeps the
    # common-algebra test on the hom and direct-sum paths cheap
    return MonomialAlgebra(q, ())


def _algebra(over) -> MonomialAlgebra:
    return _path_algebra(over) if isinstance(over, Quiver) else over


class Representation:
    """Module over a MonomialAlgebra with exact arrow matrices, as ``linalg.mat``
    returns them: int entries, a Fraction only where a value is not integral.

    ``algebra`` may be a bare Quiver, meaning its path algebra. Every
    relation path must act by zero.
    """

    __slots__ = ("algebra", "quiver", "dims", "mats")

    def __init__(self, algebra, dims, mats):
        self.algebra = algebra = _algebra(algebra)
        self.quiver = quiver = algebra.quiver
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.n:
            raise ValueError("dims length must equal vertex count")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if len(mats) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        fixed = []
        for (s, t), m in zip(quiver.arrows, mats):
            mm = linalg.mat(m)
            linalg.shape_of(mm, self.dims[t - 1], self.dims[s - 1])
            fixed.append(tuple(map(tuple, mm)))
        self.mats = tuple(fixed)
        for rel in algebra.relations:
            comp = self.path_action(quiver.arrows[rel[0]][0], rel)
            if any(any(row) for row in comp):
                raise ValueError(f"relation {rel} does not act by zero")

    @classmethod
    def _of(cls, algebra, dims: tuple[int, ...], mats) -> "Representation":
        """Module built by the engine, whose shapes, entry types and
        relations hold by construction: nothing is checked again."""
        m = cls.__new__(cls)
        m.algebra = _algebra(algebra)
        m.quiver, m.dims = m.algebra.quiver, dims
        m.mats = tuple(tuple(map(tuple, a)) for a in mats)
        return m

    def mat(self, arrow_index: int) -> Matrix:
        return [list(row) for row in self.mats[arrow_index]]

    def path_action(self, start: int, path: tuple[int, ...]) -> Matrix:
        """Matrix of a path from the start vertex space to the end vertex
        space. The width is pinned so that passing through a zero space
        still yields a correctly shaped zero matrix."""
        cols = self.dims[start - 1]
        cur = linalg.identity(cols)
        for a in path:
            cur = linalg.mat_mul(self.mats[a], cur, cols)
        return cur

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @classmethod
    def from_dims(cls, algebra, dims, entries=None) -> "Representation":
        """Module with given dims; ``entries`` maps arrow index to matrix,
        missing arrows get zero matrices."""
        algebra = _algebra(algebra)
        entries = entries or {}
        mats = []
        for idx, (s, t) in enumerate(algebra.quiver.arrows):
            if idx in entries:
                mats.append(entries[idx])
            else:
                mats.append(linalg.zeros(dims[t - 1], dims[s - 1]))
        return cls(algebra, dims, mats)

    @classmethod
    def simple(cls, algebra, i: int) -> "Representation":
        algebra = _algebra(algebra)
        dims = tuple(int(v == i) for v in range(1, algebra.quiver.n + 1))
        return cls.from_dims(algebra, dims)

    def __repr__(self):
        return f"Representation(dims={self.dims})"


# ---------------------------------------------------------------------------
# hom and ext


@dataclass
class HomSpace:
    """Solution space of the commuting-square system.

    basis elements are tuples of per-vertex matrices (dims_N[v] x dims_M[v]).
    """

    dim: int
    basis: list[tuple[Matrix, ...]]


def _square_rows(arrows, dims_m, mats_m, dims_n, mats_n) -> tuple[list[dict[int, int]], list[int]]:
    """The commuting-square system f -> (N_a f_s - f_t M_a)_a, one sparse
    integer row per nonzero equation, over the variables of the vertexwise
    maps f_v laid out vertex by vertex, each row-major; also the offset of
    each vertex's block and, last, the variable count."""
    offsets = [0]
    for v in range(len(dims_m)):
        offsets.append(offsets[-1] + dims_n[v] * dims_m[v])
    rows: list[dict[int, int]] = []
    for idx, (s, t) in enumerate(arrows):
        u, v = s - 1, t - 1
        # one common scale per arrow keeps its square's equations integral
        pair = (mats_m[idx], mats_n[idx])
        den = lcm(*(x.denominator for m in pair for row in m for x in row))
        ma, na = pair if den == 1 else (
            [[x.numerator * den // x.denominator for x in row] for row in m] for m in pair
        )
        # with no loops the f_t and f_s terms share no variable
        for r in range(dims_n[v]):
            ft = offsets[v] + r * dims_m[v]
            for c in range(dims_m[u]):
                row = {ft + k: -ma[k][c] for k in range(dims_m[v]) if ma[k][c]}
                row.update((offsets[u] + k * dims_m[u] + c, x) for k, x in enumerate(na[r]) if x)
                if row:
                    rows.append(row)
    return rows, offsets


def hom_space(arrows, dims_m, mats_m, dims_n, mats_n) -> HomSpace:
    """Solve the commuting-square system for two arrow-matrix families.

    The relations of a bound quiver impose no extra conditions on morphisms,
    so this one solver serves every algebra.
    """
    rows, offsets = _square_rows(arrows, dims_m, mats_m, dims_n, mats_n)
    kernel = linalg.nullspace(rows, offsets[-1])
    basis = [
        tuple(
            [vec[offsets[v] + r * dm:offsets[v] + (r + 1) * dm] for r in range(dims_n[v])]
            for v, dm in enumerate(dims_m)
        )
        for vec in kernel
    ]
    return HomSpace(len(basis), basis)


def hom(m: Representation, n: Representation) -> HomSpace:
    """Morphism space between modules over the same algebra."""
    if m.algebra != n.algebra:
        raise ValueError("hom needs a common algebra")
    return hom_space(m.quiver.arrows, m.dims, m.mats, n.dims, n.mats)


@lru_cache(maxsize=None)
def euler_data(q: Quiver) -> EulerData:
    return EulerData(q)


def _relation_rows(m: Representation, n: Representation) -> list[linalg.SparseRow]:
    """The map phi -> sum_i N(a_{i+1}..a_l) phi_{a_i} M(a_1..a_{i-1}) on each
    relation a_1..a_l, one sparse row per entry of Hom_k(M_s, N_t) of the
    relation, over the variables of the arrowwise maps phi_a laid out arrow
    by arrow, each row-major."""
    arrows = m.quiver.arrows
    offsets = [0]
    for s, t in arrows:
        offsets.append(offsets[-1] + n.dims[t - 1] * m.dims[s - 1])
    rows: list[linalg.SparseRow] = []
    for rel in m.algebra.relations:
        start, end = arrows[rel[0]][0], arrows[rel[-1]][1]
        terms = [
            (offsets[a], m.dims[arrows[a][0] - 1], m.path_action(start, rel[:i]),
             n.path_action(arrows[a][1], rel[i + 1:]))
            for i, a in enumerate(rel)
        ]
        for r in range(n.dims[end - 1]):
            for c in range(m.dims[start - 1]):
                row: linalg.SparseRow = {}
                for off, width, before, after in terms:
                    for x, nx in enumerate(after[r]):
                        if nx:
                            for y in range(width):
                                if before[y][c]:
                                    j = off + x * width + y
                                    row[j] = row.get(j, 0) + nx * before[y][c]
                rows.append(row)
    return rows


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(M, N) over the modules' common algebra A = kQ/I.

    The start of the projective bimodule resolution of A (vertices, arrows,
    relations; Butler-King 1999) turns Hom(-, N) into the complex

        sum_v Hom(M_v, N_v) -d0-> sum_a Hom(M_s(a), N_t(a)) -d1-> sum_r Hom(M_s(r), N_t(r))

    where d0 is the commuting-square system and d1 expands each relation,
    so dim Ext^1 = sum_a dim M_s(a) dim N_t(a) - rank d1 - rank d0. Any
    generating set of relations gives the same kernel of d1. Without
    relations d1 is empty and the value is dim Hom(M, N) - <dim M, dim N>.
    """
    if m.algebra != n.algebra:
        raise ValueError("ext needs a common algebra")
    arrows = m.quiver.arrows
    value = (
        sum(m.dims[s - 1] * n.dims[t - 1] for s, t in arrows)
        - linalg.rank(_relation_rows(m, n))
        - linalg.rank(_square_rows(arrows, m.dims, m.mats, n.dims, n.mats)[0])
    )
    if value < 0:
        raise NegativeExtError(f"ext went negative: {value} for {m.dims} -> {n.dims}")
    return value


# ---------------------------------------------------------------------------
# projective and injective dimension vectors


def projective_dims(over, i: int) -> tuple[int, ...]:
    """Dimension vector of the indecomposable projective at vertex i over a
    Quiver's path algebra or a MonomialAlgebra: the number of surviving
    paths from i to each vertex."""
    return tuple(map(len, _algebra(over).basis_from(i)))


def injective_dims(q: Quiver, i: int) -> tuple[int, ...]:
    """Dimension vector of the indecomposable injective at vertex i: the
    number of paths from each vertex to i."""
    return tuple(len(_path_algebra(q).basis_from(j)[i - 1]) for j in range(1, q.n + 1))


# ---------------------------------------------------------------------------
# reflection functors and indecomposables


def _reflect_quiver(q: Quiver, k: int) -> Quiver:
    return Quiver(q.n, tuple((t, s) if s == k or t == k else (s, t) for s, t in q.arrows))


def _coreflection(n: Representation, k: int, target_quiver: Quiver) -> Representation:
    """Reflection functor at a source k of n.quiver, landing on target_quiver
    (the same quiver with arrows at k reversed)."""
    arrows = n.quiver.arrows
    if any(t == k for _, t in arrows):
        raise AssertionError(f"vertex {k} is not a source")
    out = [idx for idx, (s, _) in enumerate(arrows) if s == k]
    stacked = [row for idx in out for row in n.mats[idx]]
    dk = n.dims[k - 1]
    # at a source the combined map is injective unless S_k splits off
    if dk and linalg.rank(stacked) != dk:
        raise AssertionError("combined source map not injective; S_k summand present")
    # each arrow out of k reads its block of columns of the cokernel map
    proj = linalg.nullspace(linalg.transpose(stacked, dk), len(stacked))
    mats, off = list(n.mats), 0
    for idx in out:
        width = n.dims[arrows[idx][1] - 1]
        mats[idx] = [row[off:off + width] for row in proj]
        off += width
    dims = tuple(len(proj) if v == k else d for v, d in enumerate(n.dims, 1))
    return Representation._of(target_quiver, dims, mats)


@lru_cache(maxsize=None)
def _indecomposables(q: Quiver) -> dict[tuple[int, ...], Representation]:
    """Every indecomposable of a Dynkin quiver by dimension vector: the
    tau^-1-orbits of the projectives, each walked with the inverse Coxeter
    functor C^- (Bernstein-Gelfand-Ponomarev 1973) up to an injective. C^-
    reflects at each vertex in topological order, a source of the quiver as
    reflected so far. On a tree every path is unique, so P_i has 0/1
    dimensions and unit maps."""
    order = q.topological_order()
    stages = [q]
    for k in order:
        stages.append(_reflect_quiver(stages[-1], k))
    injectives = {injective_dims(q, i) for i in range(1, q.n + 1)}
    out: dict[tuple[int, ...], Representation] = {}
    for i in range(1, q.n + 1):
        dims = projective_dims(q, i)
        unit = {a: [[1]] for a, (s, t) in enumerate(q.arrows) if dims[s - 1] and dims[t - 1]}
        m = Representation.from_dims(q, dims, unit)
        out[m.dims] = m
        while m.dims not in injectives:
            for k, target in zip(order, stages[1:]):
                m = _coreflection(m, k, target)
            out[m.dims] = m
    if out.keys() != positive_roots(q):
        raise AssertionError("the orbit dimension vectors are not the positive roots")
    if any(hom(m, m).dim != 1 for m in out.values()):
        raise AssertionError("an orbit module is not a brick")
    return out


def indecomposable_from_root(q: Quiver, d) -> Representation:
    """Indecomposable representation with dimension vector d (a positive root),
    looked up in the quiver's one cached walk of the tau^-1-orbits: callers
    share the module, which is immutable. Raises ValueError when d is not a
    positive root, also when q is not Dynkin."""
    d = tuple(int(x) for x in d)
    if d not in positive_roots(q):
        raise ValueError(f"{d} is not a positive root of this quiver")
    return _indecomposables(q)[d]


# ---------------------------------------------------------------------------
# the affine rank-two tube


def atilde21_tube_modules() -> tuple[Representation, Representation, Representation]:
    """Quasi-simples R1, R2 and the quasi-length-two module of the rank-two
    tube of the acyclic affine triangle (arrows 1->2, 2->3, 1->3).

    Every defining property is verified on construction: both quasi-simples
    are rigid with defect zero, their cross extensions sum to two, and the
    length-two module is a brick with a one-dimensional self-extension.
    """
    q = builtin_quiver("Atilde21")
    one = [[1]]
    r1 = Representation.simple(q, 2)
    r2 = Representation.from_dims(q, (1, 0, 1), {2: one})
    mt = Representation.from_dims(q, (1, 1, 1), {1: one, 2: one})
    ed = euler_data(q)
    delta = (1, 1, 1)
    for name, rep in (("R1", r1), ("R2", r2)):
        if ed.euler_form(delta, rep.dims) != 0:
            raise AssertionError(f"{name} is not regular (nonzero defect)")
        if hom(rep, rep).dim != 1 or ext1_dim(rep, rep) != 0:
            raise AssertionError(f"{name} is not a rigid brick")
    if ext1_dim(r1, r2) + ext1_dim(r2, r1) != 2:
        raise AssertionError("quasi-simples do not form a rank-two tube mouth")
    if hom(mt, mt).dim != 1 or ext1_dim(mt, mt) != 1:
        raise AssertionError("length-two tube module has the wrong invariants")
    return r1, r2, mt
