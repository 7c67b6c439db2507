"""Tilting modules over Dynkin path algebras and their reduction to the injectives.

A tilting module is a basic module with no extensions between its summands and
as many indecomposable summands as the quiver has vertices.  The descent
engine repeatedly locates a summand T0 that receives no maps from the rest,
forms the left approximation of T0 into the remaining summands, and swaps T0
for the single new indecomposable left in the cokernel.  Over a Dynkin quiver
this walks any tilting module down to the direct sum of the indecomposable
injectives, shrinking the torsion class at every step; the chain report
carries the exact-sequence witness for each swap.

Everything here needs a Dynkin quiver: its indecomposables are fixed by their
dimension vectors, so hom and ext between them are one table per quiver.  An
indecomposable is named by its id in that table; tilting modules hold ids, and
torsion classes, descent summands and rigidity checks are lookups.  Modules
cross in only at ``TiltingModule.of``, whose brick check maps each to its id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import linalg
from .quivers import Quiver, classify_diagram
from .reps import (
    NegativeExtError,
    Representation,
    all_indecomposables,
    direct_sum,
    euler_data,
    hom,
    injective_dims,
    is_preinjective,
)


class DecomposableSummand(ValueError):
    """A candidate summand with a nontrivial endomorphism ring."""


class NotTilting(ValueError):
    """Summand list fails the tilting-module invariants."""


class NoDescentSummand(RuntimeError):
    """No summand qualifies for a descent step; indicates an engine bug."""


class DescentStepError(RuntimeError):
    """Approximation or cokernel misbehaved during a swap; engine bug."""


@dataclass(frozen=True)
class TiltingModule:
    """A tilting module over a Dynkin quiver, held as the ids of its summands
    in the quiver's module table.

    Construction checks the id range, the summand count, distinctness and
    vanishing of ext in both directions including self, all by table lookup.
    Modules enter only through ``of``, which checks that each is a brick (over
    a Dynkin quiver, an indecomposable) and maps it to its id: by Gabriel's
    theorem its dimension vector fixes it up to isomorphism.
    """

    quiver: Quiver
    ids: tuple[int, ...]

    def __post_init__(self):
        table = _directed_indecomposables(self.quiver)
        if not all(0 <= i < len(table.ordered) for i in self.ids):
            raise ValueError(f"summand ids {self.ids} out of range")
        if len(self.ids) != self.quiver.n:
            raise NotTilting(f"need {self.quiver.n} summands, got {len(self.ids)}")
        dims = self.dims
        if len(set(self.ids)) != len(self.ids):
            raise NotTilting(f"repeated summand in {dims}")
        for a, da in zip(self.ids, dims):
            for b, db in zip(self.ids, dims):
                if table.ext[a][b]:
                    raise NotTilting(f"ext^1({da}, {db}) is nonzero")

    @classmethod
    def of(cls, quiver: Quiver, summands) -> "TiltingModule":
        """The tilting module with the given indecomposable summands."""
        table = _directed_indecomposables(quiver)
        ids = []
        for s in summands:
            if s.quiver != quiver:
                raise ValueError("summand lives on a different quiver")
            if (end := hom(s, s).dim) != 1:
                raise DecomposableSummand(
                    f"summand {s.dims} has {end}-dimensional endomorphism ring"
                )
            ids.append(table.index[s.dims])
        return cls(quiver, tuple(ids))

    @property
    def summands(self) -> tuple[Representation, ...]:
        ordered = _directed_indecomposables(self.quiver).ordered
        return tuple(ordered[i] for i in self.ids)

    @property
    def dims(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.dims for s in self.summands)


@dataclass(frozen=True)
class TorsionClass:
    """Dimension vectors of the indecomposables with no extensions from T;
    bit i of ``mask`` is set iff the i-th directed indecomposable is one."""

    members: frozenset
    mask: int


def is_tilting_module(quiver: Quiver, summands) -> bool:
    """Whether the given indecomposables form a tilting module.

    Raises as TiltingModule.of does on a non-Dynkin quiver, a summand from
    another quiver or a non-brick; the boolean covers count, distinctness
    and ext.
    """
    try:
        TiltingModule.of(quiver, summands)
    except NotTilting:
        return False
    return True


class _ModuleTable(NamedTuple):
    ordered: tuple[Representation, ...]
    hh: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    ext: tuple[tuple[int, ...], ...]
    ext_free: tuple[int, ...]
    injective: frozenset[int]


@lru_cache(maxsize=None)
def _directed_indecomposables(q: Quiver) -> _ModuleTable:
    """One hom/ext table over the indecomposables of a Dynkin quiver.

    ``ordered`` is a linear extension of the nonzero-hom relation, a partial
    order as Dynkin module categories are directed; ``index`` maps a dimension
    vector to its id.  ``hh[i][j]`` is dim Hom(X_i, X_j), ``ext[i][j]`` is
    hh[i][j] - <d_i, d_j> = dim Ext^1(X_i, X_j), bit j of ``ext_free[i]``
    is set iff ext[i][j] = 0, and ``injective`` holds the ids of the
    indecomposable injectives.
    """
    diagram = classify_diagram(q)
    if diagram.kind != "dynkin":
        raise ValueError(f"tilting modules need a Dynkin quiver, got {diagram.label}")
    inds = all_indecomposables(q)
    nn = len(inds)
    hmat = [[hom(a, b).dim for b in inds] for a in inds]
    indeg = [sum(1 for i in range(nn) if i != j and hmat[i][j]) for j in range(nn)]
    avail = [i for i in range(nn) if indeg[i] == 0]
    order: list[int] = []
    while avail:
        i = min(avail)
        avail.remove(i)
        order.append(i)
        for j in range(nn):
            if j != i and hmat[i][j]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    avail.append(j)
    if len(order) != nn:
        raise ValueError("hom relation between indecomposables has a cycle")
    ordered = tuple(inds[i] for i in order)
    hh = tuple(tuple(hmat[a][b] for b in order) for a in order)
    ed = euler_data(q)
    ext = tuple(
        tuple(h - ed.euler_form(a.dims, b.dims) for h, b in zip(row, ordered))
        for row, a in zip(hh, ordered)
    )
    if min(map(min, ext)) < 0:
        raise NegativeExtError("ext went negative between indecomposables")
    ext_free = tuple(sum(1 << j for j, e in enumerate(row) if e == 0) for row in ext)
    index = {m.dims: i for i, m in enumerate(ordered)}
    injective = frozenset(index[injective_dims(q, v)] for v in range(1, q.n + 1))
    return _ModuleTable(ordered, hh, index, ext, ext_free, injective)


def module_summand_dims(q: Quiver, rep: Representation) -> tuple[tuple[int, ...], ...]:
    """Multiset of indecomposable summand dimension vectors of ``rep``.

    hom dimensions out of the directed list are unitriangular in the summand
    multiplicities (bricks on the diagonal, zeros below), so back-substitution
    forces them.  The result is cross-checked against the dimension vector.
    """
    table = _directed_indecomposables(q)
    ordered, hh = table.ordered, table.hh
    nn = len(ordered)
    homs = [hom(x, rep).dim for x in ordered]
    mult = [0] * nn
    for i in reversed(range(nn)):
        val = homs[i] - sum(hh[i][j] * mult[j] for j in range(i + 1, nn))
        if val < 0:
            raise ValueError(f"negative multiplicity at {ordered[i].dims}")
        mult[i] = val
    out = [x.dims for x, m in zip(ordered, mult) for _ in range(m)]
    if tuple(sum(d[v] for d in out) for v in range(q.n)) != rep.dims:
        raise ValueError("summand multiplicities do not add up to the module")
    return tuple(sorted(out))


def enumerate_tilting_modules(quiver: Quiver) -> tuple[TiltingModule, ...]:
    """All tilting modules, by brute force over indecomposable subsets."""
    table = _directed_indecomposables(quiver)
    return tuple(
        TiltingModule(quiver, sub)
        for sub in combinations(range(len(table.ordered)), quiver.n)
        if all(table.ext[i][j] == 0 for i in sub for j in sub)
    )


def torsion_class(quiver: Quiver, t: TiltingModule) -> TorsionClass:
    """Indecomposables M with ext^1(T, M) = 0, recorded by dimension vector."""
    if t.quiver != quiver:
        raise ValueError("tilting module lives on a different quiver")
    table = _directed_indecomposables(quiver)
    mask = (1 << len(table.ordered)) - 1
    for i in t.ids:
        mask &= table.ext_free[i]
    keep = [m.dims for j, m in enumerate(table.ordered) if mask >> j & 1]
    return TorsionClass(frozenset(keep), mask)


def find_descent_summand(quiver: Quiver, t: TiltingModule) -> int | None:
    """Index of the next summand to swap, or None when all are injective.

    The summand must be non-injective and receive no maps from the other
    summands, so the full hom space from T onto it is the one-dimensional
    endomorphism ring.
    """
    if t.quiver != quiver:
        raise ValueError("tilting module lives on a different quiver")
    table = _directed_indecomposables(quiver)
    if table.injective.issuperset(t.ids):
        return None
    for k, j in enumerate(t.ids):
        if j not in table.injective and sum(table.hh[i][j] for i in t.ids) == 1:
            return k
    raise NoDescentSummand(f"no swappable summand in {t.dims}")


def complement_and_sequence(quiver: Quiver, t: TiltingModule, k: int):
    """Swap summand ``k`` for the second complement of the remaining n - 1.

    Builds the left approximation of T0 into the other summands from a full
    hom basis, checks it is injective vertexwise, and reads the new summand
    off the cokernel after stripping copies of the untouched summands.  The
    stripped copies are also removed from the approximation target, which
    recovers the minimal middle term E of 0 -> T0 -> E -> T0' -> 0.  Returns
    the new tilting module and a step witness dict.
    """
    t0 = t.summands[k]
    t_bar = tuple(s for i, s in enumerate(t.summands) if i != k)
    blocks: list[tuple[Representation, tuple]] = []
    for s in t_bar:
        for f in hom(t0, s).basis:
            blocks.append((s, f))
    if not blocks:
        raise DescentStepError(f"summand {t0.dims} admits no maps into the rest")

    e_rep = blocks[0][0]
    for s, _ in blocks[1:]:
        e_rep = direct_sum(e_rep, s)
    # at each vertex the approximation stacks the blocks' matrices
    fmats = [[row for _, f in blocks for row in f[v]] for v in range(quiver.n)]
    for v in range(quiver.n):
        if linalg.rank(fmats[v]) != t0.dims[v]:
            raise DescentStepError(
                f"approximation of {t0.dims} is not injective at vertex {v + 1}"
            )

    # cokernel: left-nullspace rows project each vertex space onto the quotient
    proj = []
    sect = []
    w_dims = []
    for v in range(quiver.n):
        ev = e_rep.dims[v]
        pv = linalg.nullspace(linalg.transpose(fmats[v], cols=ev), ev)
        proj.append(pv)
        w_dims.append(len(pv))
        cols = []
        for rhs in linalg.identity(len(pv)):
            x = linalg.solve(pv, rhs, ev)
            assert x is not None, "projection rows are independent by construction"
            cols.append(x)
        sect.append(linalg.transpose(cols, cols=ev))
    w_mats = []
    for idx, (sv, tv) in enumerate(quiver.arrows):
        u, v = sv - 1, tv - 1
        ea = e_rep.mats[idx]
        pe = linalg.mat_mul(proj[v], ea, e_rep.dims[u])
        wa = linalg.mat_mul(pe, sect[u], w_dims[u])
        if linalg.mat_mul(wa, proj[u], e_rep.dims[u]) != pe:
            raise DescentStepError("cokernel arrow map is not well defined")
        w_mats.append(wa)
    w = Representation(quiver, tuple(w_dims), w_mats)

    parts = list(module_summand_dims(quiver, w))
    stripped: list[tuple[int, ...]] = []
    for s in t_bar:
        while s.dims in parts:
            parts.remove(s.dims)
            stripped.append(s.dims)
    if len(parts) != 1:
        raise DescentStepError(
            f"cokernel of {t0.dims} leaves {parts} after stripping"
        )
    t0p_dims = parts[0]
    if t0p_dims == t0.dims:
        raise DescentStepError("swap reproduced the removed summand")

    e_summands = sorted(s.dims for s, _ in blocks)
    for d in stripped:
        if d not in e_summands:
            raise DescentStepError("stripped summand missing from the middle term")
        e_summands.remove(d)
    dim_e = tuple(sum(d[v] for d in e_summands) for v in range(quiver.n))
    if dim_e != tuple(a + b for a, b in zip(t0.dims, t0p_dims)):
        raise DescentStepError(
            f"middle term {dim_e} is not {t0.dims} + {t0p_dims}"
        )

    t0p = _directed_indecomposables(quiver).index[t0p_dims]
    new_t = TiltingModule(quiver, t.ids[:k] + (t0p,) + t.ids[k + 1:])
    witness = {
        "replaced_index": k,
        "dim_t0": list(t0.dims),
        "dim_e": list(dim_e),
        "e_summands": [list(d) for d in e_summands],
        "dim_t0_prime": list(t0p_dims),
        "t0_prime_preinjective": is_preinjective(euler_data(quiver), t0p_dims),
        "torsion_before": len(torsion_class(quiver, t).members),
        "torsion_after": len(torsion_class(quiver, new_t).members),
    }
    return new_t, witness


def prop8_descent(quiver: Quiver, t: TiltingModule) -> dict:
    """Walk a tilting module down to the injectives one swap at a time.

    Every step must shrink the torsion class strictly (member-wise), change
    exactly one summand, and expel the removed summand from the new torsion
    class while the removed summand keeps trivial extensions into it.  An
    already injective module yields an empty chain.
    """
    table = _directed_indecomposables(quiver)
    cur = t
    cur_tc = torsion_class(quiver, cur)
    sizes = [len(cur_tc.members)]
    steps: list[dict] = []
    while True:
        k = find_descent_summand(quiver, cur)
        if k is None:
            break
        if len(steps) >= len(table.ordered):
            raise DescentStepError("descent did not terminate within the module count")
        t0 = cur.ids[k]
        new_t, witness = complement_and_sequence(quiver, cur, k)
        new_tc = torsion_class(quiver, new_t)
        if not new_tc.members < cur_tc.members:
            raise DescentStepError("torsion class did not shrink")
        if len(set(cur.ids) ^ set(new_t.ids)) != 2:
            raise DescentStepError("swap changed more than one summand")
        if new_tc.mask >> t0 & 1:
            raise DescentStepError("removed summand stayed in the torsion class")
        if new_tc.mask & ~table.ext_free[t0]:
            raise DescentStepError("extension from the removed summand survived")
        steps.append(witness)
        sizes.append(len(new_tc.members))
        cur, cur_tc = new_t, new_tc
    if set(cur.ids) != table.injective:
        raise DescentStepError("chain terminated away from the injectives")
    return {
        "diagram": classify_diagram(quiver).label,
        "start_summands": [list(d) for d in t.dims],
        "steps": steps,
        "step_count": len(steps),
        "torsion_sizes": sizes,
        "terminal_injectives": True,
    }
