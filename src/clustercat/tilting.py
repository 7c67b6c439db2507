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
dimension vectors, so hom and ext between them are one table per quiver, and
torsion classes, descent summands and rigidity checks are lookups in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    indecomposable_from_root,
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
    """Ordered tuple of pairwise non-isomorphic rigid indecomposables over a
    Dynkin quiver.

    Construction validates everything: the quiver, indecomposability (brick),
    summand count, distinctness (by dimension vector, faithful by Gabriel's
    theorem), and vanishing of ext in both directions including self.
    """

    quiver: Quiver
    summands: tuple[Representation, ...]

    def __post_init__(self):
        table = _directed_indecomposables(self.quiver)
        for s in self.summands:
            if s.quiver != self.quiver:
                raise ValueError("summand lives on a different quiver")
            # over a Dynkin quiver brick and indecomposable agree
            if (end := hom(s, s).dim) != 1:
                raise DecomposableSummand(
                    f"summand {s.dims} has {end}-dimensional endomorphism ring"
                )
        if len(self.summands) != self.quiver.n:
            raise NotTilting(
                f"need {self.quiver.n} summands, got {len(self.summands)}"
            )
        if len(set(self.dims)) != len(self.summands):
            raise NotTilting(f"repeated summand in {self.dims}")
        for a in self.summands:
            for b in self.summands:
                if table.ext[table.index[a.dims]][table.index[b.dims]]:
                    raise NotTilting(f"ext^1({a.dims}, {b.dims}) is nonzero")

    @property
    def dims(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.dims for s in self.summands)

    def replaced(self, k: int, new: Representation) -> "TiltingModule":
        out = list(self.summands)
        out[k] = new
        return TiltingModule(self.quiver, tuple(out))


@dataclass(frozen=True)
class TorsionClass:
    """Dimension vectors of the indecomposables with no extensions from T;
    bit i of ``mask`` is set iff the i-th directed indecomposable is one."""

    members: frozenset
    mask: int


def is_tilting_module(quiver: Quiver, summands) -> bool:
    """Whether the given indecomposables form a tilting module.

    Raises as TiltingModule does on a non-Dynkin quiver, a summand from
    another quiver or a non-brick; the boolean covers count, distinctness
    and ext.
    """
    try:
        TiltingModule(quiver, tuple(summands))
    except NotTilting:
        return False
    return True


class _ModuleTable(NamedTuple):
    ordered: tuple[Representation, ...]
    hh: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    ext: tuple[tuple[int, ...], ...]
    ext_free: tuple[int, ...]


@lru_cache(maxsize=None)
def _directed_indecomposables(q: Quiver) -> _ModuleTable:
    """One hom/ext table over the indecomposables of a Dynkin quiver.

    ``ordered`` is a linear extension of the nonzero-hom relation, a partial
    order as Dynkin module categories are directed; ``index`` maps a dimension
    vector to its id.  ``hh[i][j]`` is dim Hom(X_i, X_j), ``ext[i][j]`` is
    hh[i][j] - <d_i, d_j> = dim Ext^1(X_i, X_j), and bit j of ``ext_free[i]``
    is set iff ext[i][j] = 0.
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
    return _ModuleTable(ordered, hh, index, ext, ext_free)


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
    total = [0] * q.n
    for i, x in enumerate(ordered):
        for v in range(q.n):
            total[v] += mult[i] * x.dims[v]
    if tuple(total) != rep.dims:
        raise ValueError("summand multiplicities do not add up to the module")
    out: list[tuple[int, ...]] = []
    for i, x in enumerate(ordered):
        out.extend([x.dims] * mult[i])
    return tuple(sorted(out))


def enumerate_tilting_modules(quiver: Quiver) -> tuple[TiltingModule, ...]:
    """All tilting modules, by brute force over indecomposable subsets."""
    table = _directed_indecomposables(quiver)
    out = []
    for sub in combinations(range(len(table.ordered)), quiver.n):
        if all(table.ext[i][j] == 0 for i in sub for j in sub):
            out.append(TiltingModule(quiver, tuple(table.ordered[i] for i in sub)))
    return tuple(out)


def _summand_ids(quiver: Quiver, t: TiltingModule) -> tuple[_ModuleTable, list[int]]:
    if t.quiver != quiver:
        raise ValueError("tilting module lives on a different quiver")
    table = _directed_indecomposables(quiver)
    return table, [table.index[d] for d in t.dims]


def torsion_class(quiver: Quiver, t: TiltingModule) -> TorsionClass:
    """Indecomposables M with ext^1(T, M) = 0, recorded by dimension vector."""
    table, ids = _summand_ids(quiver, t)
    mask = (1 << len(table.ordered)) - 1
    for i in ids:
        mask &= table.ext_free[i]
    keep = [m.dims for j, m in enumerate(table.ordered) if mask >> j & 1]
    return TorsionClass(frozenset(keep), mask)


def find_descent_summand(quiver: Quiver, t: TiltingModule) -> int | None:
    """Index of the next summand to swap, or None when all are injective.

    The summand must be non-injective and receive no maps from the other
    summands, so the full hom space from T onto it is the one-dimensional
    endomorphism ring.
    """
    table, ids = _summand_ids(quiver, t)
    inj = {injective_dims(quiver, i) for i in range(1, quiver.n + 1)}
    noninj = [k for k, s in enumerate(t.summands) if s.dims not in inj]
    if not noninj:
        return None
    for k in noninj:
        total = sum(table.hh[i][ids[k]] for i in ids)
        if total == 1:
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
    fmats = []
    for v in range(quiver.n):
        stacked: list[list[Fraction]] = []
        for _, f in blocks:
            stacked = linalg.vstack(stacked, f[v])
        fmats.append(stacked)
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
        for j in range(len(pv)):
            rhs = [Fraction(int(i == j)) for i in range(len(pv))]
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
    t0_prime = indecomposable_from_root(quiver, t0p_dims)

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

    new_t = t.replaced(k, t0_prime)
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
    inj = {injective_dims(quiver, i) for i in range(1, quiver.n + 1)}
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
        t0 = cur.summands[k]
        new_t, witness = complement_and_sequence(quiver, cur, k)
        new_tc = torsion_class(quiver, new_t)
        if not new_tc.members < cur_tc.members:
            raise DescentStepError("torsion class did not shrink")
        if len(set(cur.dims) ^ set(new_t.dims)) != 2:
            raise DescentStepError("swap changed more than one summand")
        if t0.dims in new_tc.members:
            raise DescentStepError("removed summand stayed in the torsion class")
        if new_tc.mask & ~table.ext_free[table.index[t0.dims]]:
            raise DescentStepError("extension from the removed summand survived")
        steps.append(witness)
        sizes.append(len(new_tc.members))
        cur, cur_tc = new_t, new_tc
    if {s.dims for s in cur.summands} != inj:
        raise DescentStepError("chain terminated away from the injectives")
    return {
        "diagram": classify_diagram(quiver).label,
        "start_summands": [list(d) for d in t.dims],
        "steps": steps,
        "step_count": len(steps),
        "torsion_sizes": sizes,
        "terminal_injectives": True,
    }
