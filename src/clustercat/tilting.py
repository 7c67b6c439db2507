"""Tilting modules over Dynkin path algebras and their reduction to the injectives.

A tilting module is a basic module with no extensions between its summands and
as many indecomposable summands as the quiver has vertices.  The descent
engine repeatedly locates a summand T0 that receives no maps from the rest and
swaps it for the other complement T0' of the remaining summands, through the
exact sequence 0 -> T0 -> E -> T0' -> 0.  Over a Dynkin quiver this walks any
tilting module down to the direct sum of the indecomposable injectives,
shrinking the torsion class at every step.

Everything here needs a Dynkin quiver: its indecomposables are fixed by their
dimension vectors, so hom and ext between them are one table per quiver, over
the modules that ``reps`` walks along the rows of ``quivers.tau_orbits``.  The
category is directed, so the table is the positive and the negative part of
the Euler form, checked against ``category.GammaC``'s hom rows; hom bases
are solved only for the pairs a swap's approximation uses.  An
indecomposable is named by its id in that table; tilting modules hold ids,
and torsion classes, descent summands, the enumeration and each swap's T0'
and E are lookups.  Restricted to a tilting module's ids in increasing order
the hom table is upper unitriangular (the ids extend nonzero hom, and every
indecomposable is a brick), so E's multiplicities are one integer
back-substitution on hom counts.  The module route certifies every swap with
one Ext rank: the cokernel of the approximation of T0 must be rigid, and so
it is fixed by its dimension vector.  A swap depends only on the summand set
and on T0, so each (set, T0) swap is certified once per table and its T0' and
E ids are shared by every descent chain through it; every step is written
from the table.  Modules cross in only at ``TiltingModule.of``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, and_, mul
from typing import NamedTuple

from . import linalg
from .category import GammaC, zero_mask
from .quivers import Quiver, euler_data, tau_orbits
from .reps import Representation, ext1_dim, hom, indecomposable_from_root


class DecomposableSummand(ValueError):
    """A candidate summand with a nontrivial endomorphism ring."""


class NotTilting(ValueError):
    """Summand list fails the tilting-module invariants."""


class DescentStepError(RuntimeError):
    """Approximation or cokernel misbehaved during a swap; engine bug."""


@dataclass(frozen=True)
class TiltingModule:
    """A tilting module over a Dynkin quiver, held as the ids of its summands
    in the quiver's module table.

    Construction checks the id range, the summand count, distinctness and
    vanishing of ext in both directions including self, all by table lookup;
    bit i of ``key`` is set iff id i is a summand. Modules enter only through
    ``of``, which checks that each is a brick (over a Dynkin quiver, an
    indecomposable) and maps it to its id: by Gabriel's theorem its dimension
    vector fixes it up to isomorphism."""

    quiver: Quiver
    ids: tuple[int, ...]
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = _directed_indecomposables(self.quiver)
        if not all(0 <= i < len(table.ordered) for i in self.ids):
            raise ValueError(f"summand ids {self.ids} out of range")
        if len(self.ids) != self.quiver.n:
            raise NotTilting(f"need {self.quiver.n} summands, got {len(self.ids)}")
        if len(set(self.ids)) != len(self.ids):
            raise NotTilting(f"repeated summand in {self.dims}")
        object.__setattr__(self, "key", bits := sum(1 << i for i in self.ids))
        if any(table.compat[a] & bits != bits for a in self.ids):
            raise NotTilting(f"ext^1 between summands of {self.dims} is nonzero")

    def _swapped(self, k: int, t0p: int) -> "TiltingModule":
        """Summand k replaced by ``t0p``, unchecked: for a swap certified on the same summand set."""
        new, ids = copy(self), self.ids[:k] + (t0p,) + self.ids[k + 1:]
        new.__dict__.update(ids=ids, key=self.key ^ (1 << self.ids[k]) ^ (1 << t0p))
        return new

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


class _ModuleTable(NamedTuple):
    ordered: tuple[Representation, ...]
    hh: tuple[tuple[int, ...], ...]
    hom_basis: dict[tuple[int, int], list]
    index: dict[tuple[int, ...], int]
    ext: tuple[tuple[int, ...], ...]
    hom_into: tuple[int, ...]
    ext_free: tuple[int, ...]
    compat: tuple[int, ...]
    injective: frozenset[int]
    swaps: dict[tuple[int, int], tuple[int, tuple[int, ...]]]
    label: str


@lru_cache(maxsize=None)
def _directed_indecomposables(q: Quiver) -> _ModuleTable:
    """One hom/ext table over the indecomposables of a Dynkin quiver.

    The module category is directed, so hom and ext1 between two
    indecomposables are never both nonzero, and the Euler form <d_i, d_j> =
    dim Hom - dim Ext^1 splits: ``hh[i][j]`` = dim Hom(X_i, X_j) is its
    positive part and ``ext[i][j]`` = dim Ext^1(X_i, X_j) its negative part
    (Ringel 1984); every X_i is a brick, hh[i][i] = 1.  ``ordered`` is a
    linear extension of the nonzero-hom relation, ties broken by dimension
    vector; so hh[i][j] = 0 for i > j.  ``index`` maps a dimension vector to
    its id, and bit i of ``hom_into[j]`` is set iff i != j and hh[i][j] != 0.
    Bit j of ``ext_free[i]`` is set iff ext[i][j] = 0, bit j of
    ``compat[i]`` is set iff ext vanishes both ways between X_i and X_j, and
    ``injective`` holds the ids of the indecomposable injectives, the last
    module of each row of ``quivers.tau_orbits``.  At every
    module pair the table must give ``GammaC``'s Hom_C(X, Y) = hh[X][Y] +
    ext[X][tau^-1 Y], the last term 0 at an injective Y.
    ``hom_basis[i, j]`` is a solved basis of Hom(X_i, X_j) for the pairs two
    summands of a tilting module can form: i != j, compatible, nonzero hom.
    ``swaps`` starts empty and memoizes ``prop8_descent``'s certified swaps:
    (summand bitmask, T0 id) -> (T0' id, ids of E's summands).  ``label``
    names the rows' Dynkin diagram for the descent reports.
    """
    g = GammaC(q)
    inds = [x for x, v in enumerate(g.vertices) if v.is_module]
    nn = len(inds)
    # <d_i, d_j> = (d_i E) . d_j, with the integer row d_i E computed once per module
    dims = [g.vertices[x].dims for x in inds]
    cols = tuple(zip(*euler_data(q).euler_matrix))
    rows = [[sum(map(mul, d, c)) for c in cols] for d in dims]
    form = [[sum(map(mul, r, d)) for d in dims] for r in rows]
    # an arrow i -> j per nonzero Hom(X_i, X_j), i != j; the topological
    # order raises ValueError on a cycle
    arrows = [(i + 1, j + 1) for i, row in enumerate(form) for j, f in enumerate(row) if i != j and f > 0]
    order = [v - 1 for v in Quiver(nn, arrows).topological_order()]
    ordered = tuple(indecomposable_from_root(q, dims[i]) for i in order)
    hh = tuple(tuple(max(form[a][b], 0) for b in order) for a in order)
    if any(row[i] != 1 for i, row in enumerate(hh)):
        raise AssertionError("an indecomposable has a nontrivial endomorphism ring")
    ext = tuple(tuple(max(-form[a][b], 0) for b in order) for a in order)
    # the second route: GammaC's rows, read off dimension vectors along the
    # tau-orbits, hold Hom_C(X, Y) = hom(X, Y) + ext1(X, tau^-1 Y)
    gid = [inds[a] for a in order]  # GammaC id of each table id
    tid = dict(zip(gid, range(nn)))
    untau = dict(zip(g.tau_i, range(len(g.tau_i))))
    inv = [tid.get(untau[y], nn) for y in gid]  # nn past an injective, whose tau^-1 is no module
    for x, h_row, e_row in zip(gid, hh, ext):
        e_row += (0,)
        if [g.hom_i[x][y] for y in gid] != [h + e_row[z] for h, z in zip(h_row, inv)]:
            raise AssertionError("Euler form and GammaC hom rows disagree")
    hom_into = tuple(
        ~zero_mask(bytes(col)) & ((1 << nn) - 1) & ~(1 << j) for j, col in enumerate(zip(*hh))
    )
    ext_free = tuple(map(zero_mask, map(bytes, ext)))
    compat = tuple(map(and_, ext_free, map(zero_mask, map(bytes, zip(*ext)))))
    hom_basis = {}
    for i, row in enumerate(hh):
        for j, h in enumerate(row):
            if i != j and h and compat[i] >> j & 1:
                hom_basis[i, j] = hom(ordered[i], ordered[j]).basis
                if len(hom_basis[i, j]) != h:
                    raise AssertionError("Euler form and hom solve disagree")
    index = {m.dims: i for i, m in enumerate(ordered)}
    injective = frozenset(index[row[-1]] for row in tau_orbits(q).rows)
    return _ModuleTable(
        ordered, hh, hom_basis, index, ext, hom_into, ext_free, compat, injective, {}, g.diagram.label
    )


def _table_for(quiver: Quiver, t: TiltingModule) -> _ModuleTable:
    """The module table of ``quiver``, which must be the quiver ``t`` lives on."""
    if t.quiver != quiver:
        raise ValueError("tilting module lives on a different quiver")
    return _directed_indecomposables(quiver)


def enumerate_tilting_modules(quiver: Quiver) -> tuple[TiltingModule, ...]:
    """All tilting modules in lexicographic id order, by a clique search on
    the compatibility masks: a clique's candidates are the ids above its
    last that are compatible with every member, and it branches on the
    lowest while enough candidates are left to reach n summands."""
    table = _directed_indecomposables(quiver)
    found: list[TiltingModule] = []

    def extend(ids: tuple[int, ...], cand: int) -> None:
        if len(ids) == quiver.n:
            found.append(TiltingModule(quiver, ids))
        while cand.bit_count() >= quiver.n - len(ids) > 0:
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(ids + (i,), cand & table.compat[i])

    extend((), (1 << len(table.ordered)) - 1)
    return tuple(found)


def torsion_class(quiver: Quiver, t: TiltingModule) -> int:
    """Indecomposables M with ext^1(T, M) = 0, as a mask: bit j is set iff
    the module with id j is one."""
    table = _table_for(quiver, t)
    mask = (1 << len(table.ordered)) - 1
    for i in t.ids:
        mask &= table.ext_free[i]
    return mask


def find_descent_summand(quiver: Quiver, t: TiltingModule) -> int | None:
    """Index of the next summand to swap, or None when all are injective.

    The summand must be non-injective and receive no maps from the other
    summands (its ``hom_into`` mask misses T's), so the full hom space from T
    onto it is the one-dimensional endomorphism ring.
    """
    table = _table_for(quiver, t)
    if table.injective.issuperset(t.ids):
        return None
    for k, j in enumerate(t.ids):
        if j not in table.injective and not table.hom_into[j] & t.key:
            return k
    raise AssertionError(f"no swappable summand in {t.dims}")


def _cokernel(quiver: Quiver, t: TiltingModule, k: int) -> Representation:
    """Cokernel W of the left approximation of summand ``k`` by the table's
    hom bases into the others; it must be injective at every vertex.  E, one
    summand per basis map, is never formed: W reads the summands' matrices."""
    table, i0 = _table_for(quiver, t), t.ids[k]
    t0 = table.ordered[i0]
    blocks = [
        (table.ordered[j], f) for j in t.ids if j != i0 for f in table.hom_basis.get((i0, j), ())
    ]
    if not blocks:
        raise DescentStepError(f"summand {t0.dims} admits no maps into the rest")
    # block b of E_v begins at index starts[b][v]
    starts, e_dims = [], (0,) * quiver.n
    for s, _ in blocks:
        starts.append(e_dims)
        e_dims = tuple(map(add, e_dims, s.dims))
    proj, free = [], []
    for v, ev in enumerate(e_dims):
        # left-kernel rows of the stacked maps project onto W; each is 1 at its own
        # free column (its last nonzero entry) and 0 at the others, which lift W back
        stacked = linalg.transpose([row for _, f in blocks for row in f[v]], cols=ev)
        proj.append(linalg.nullspace(stacked, ev))
        if len(proj[v]) != ev - t0.dims[v]:
            raise DescentStepError(f"approximation of {t0.dims} is not injective at vertex {v + 1}")
        free.append([max(c for c, x in enumerate(row) if x) for row in proj[v]])
    w_mats = []
    for idx, (sv, tv) in enumerate(quiver.arrows):
        u, v = sv - 1, tv - 1
        # E_a as the nonzero entries of each row, read off the arrow matrix of
        # the row's own summand, so the zero blocks off the diagonal never exist
        e_a = [
            [(at[u] + c, x) for c, x in enumerate(row) if x]
            for (s, _), at in zip(blocks, starts) for row in s.mats[idx]
        ]
        pe = []
        for prow in proj[v]:
            out = [0] * e_dims[u]
            for r, x in enumerate(prow):
                if x:
                    for c, y in e_a[r]:
                        out[c] += x * y
            pe.append(out if set(map(type, out)) <= {int} else list(map(linalg.frac, out)))
        wa = [[row[c] for c in free[u]] for row in pe]
        if linalg.mat_mul(wa, proj[u], e_dims[u]) != pe:
            raise DescentStepError("cokernel arrow map is not well defined")
        w_mats.append(wa)
    return Representation._of(quiver, tuple(map(len, proj)), w_mats)


def complement_and_sequence(quiver: Quiver, t: TiltingModule, k: int):
    """Swap summand ``k`` for the second complement of the remaining n - 1.

    The table predicts the swap: T0' is the one id left in the AND of the
    remaining summands' compatibility masks once their bits and T0's are
    cleared (an almost complete tilting module has at most two complements).
    Hom(T_i, -) is exact on 0 -> T0 -> E -> T0' -> 0, as Ext^1(T_i, T0) = 0,
    so E's multiplicities m solve sum_j m_j hh[i][j] = hh[i][T0] + hh[i][T0']
    over T's summands i: an upper unitriangular system on T's ids in
    increasing order, so m is one integer back-substitution from the largest
    id down, and m at T0 must come out 0.  The remaining summands' dimension
    vectors are independent, so the checked sum_j m_j dim T_j = dim T0 +
    dim T0' leaves m no freedom.
    The module route certifies the swap with one rank: the cokernel W of the
    approximation, whose dimension vector is then dim T0' plus the surplus
    copies of the remaining summands, must have Ext^1(W, W) = 0; a rigid
    module is fixed by its dimension vector (its orbit is open), so W is T0'
    plus those copies.  Returns the new tilting module and the ids of E's
    summands, repeated by multiplicity and sorted by dimension vector.
    """
    table = _table_for(quiver, t)
    dims, hh = [m.dims for m in table.ordered], table.hh
    t0, rest = t.ids[k], t.ids[:k] + t.ids[k + 1:]
    cand = ~(1 << t0)
    for j in rest:
        cand &= table.compat[j] & ~(1 << j)
    if cand <= 0 or cand & (cand - 1):
        raise DescentStepError(f"{t.dims} without summand {k} has no single second complement")
    t0p = cand.bit_length() - 1
    target = [a + b for a, b in zip(dims[t0], dims[t0p])]
    # from the largest id down: hh[i][j] = 0 for j < i, so row i needs only the m_j already found
    mult: dict[int, int] = {}
    for i in sorted(t.ids, reverse=True):
        row = hh[i]
        mult[i] = row[t0] + row[t0p] - sum(row[j] * x for j, x in mult.items())
    sums = [sum(x * dims[j][v] for j, x in mult.items()) for v in range(quiver.n)]
    if mult.pop(t0) or any(x < 0 for x in mult.values()) or sums != target:
        raise DescentStepError(f"no middle term over the rest adds up to {target}")
    if any(hh[t0][j] < x for j, x in mult.items()):
        raise DescentStepError("approximation misses part of the predicted middle term")
    w = _cokernel(quiver, t, k)
    if ext1_dim(w, w):
        raise DescentStepError(f"cokernel with dimension vector {w.dims} is not rigid")
    e = sorted((j for j, x in mult.items() for _ in range(x)), key=dims.__getitem__)
    return TiltingModule(quiver, t.ids[:k] + (t0p,) + t.ids[k + 1:]), tuple(e)


def prop8_descent(quiver: Quiver, t: TiltingModule) -> dict:
    """Walk a tilting module down to the injectives one swap at a time.

    A swap depends only on the summand set and on the removed summand T0 (an
    almost complete tilting module has at most two complements), so each
    (set, T0) swap is certified once per module table by
    ``complement_and_sequence`` and read from the table's ``swaps`` memo, as
    T0' and E ids, by every later chain that passes through it; a read step's
    module has the summand set of a checked one and is not checked again.
    Every step is written from the table and its two torsion masks; it must
    shrink the torsion class strictly (its mask loses bits and gains none),
    change exactly one summand, and expel the removed summand from the new
    torsion class while the removed summand keeps trivial extensions into it.
    An already injective module yields an empty chain."""
    table = _directed_indecomposables(quiver)
    dims = [m.dims for m in table.ordered]
    cur = t
    cur_tc = torsion_class(quiver, cur)
    sizes = [cur_tc.bit_count()]
    steps: list[dict] = []
    while (k := find_descent_summand(quiver, cur)) is not None:
        if len(steps) >= len(table.ordered):
            raise DescentStepError("descent did not terminate within the module count")
        t0 = cur.ids[k]
        if (swap := table.swaps.get((cur.key, t0))) is None:
            new_t, e = complement_and_sequence(quiver, cur, k)
            swap = table.swaps[cur.key, t0] = (new_t.ids[k], e)
        else:
            new_t = cur._swapped(k, swap[0])
        t0p, e = swap
        new_tc = torsion_class(quiver, new_t)
        if new_tc & ~cur_tc or new_tc == cur_tc:
            raise DescentStepError("torsion class did not shrink")
        if len(set(cur.ids) ^ set(new_t.ids)) != 2:
            raise DescentStepError("swap changed more than one summand")
        if new_tc >> t0 & 1:
            raise DescentStepError("removed summand stayed in the torsion class")
        if new_tc & ~table.ext_free[t0]:
            raise DescentStepError("extension from the removed summand survived")
        steps.append({
            "replaced_index": k,
            "dim_t0": list(dims[t0]),
            "dim_e": [a + b for a, b in zip(dims[t0], dims[t0p])],
            "e_summands": [list(dims[j]) for j in e],
            "dim_t0_prime": list(dims[t0p]),
            # the orbit walk reaches every table module from a projective and ends at an injective
            "t0_prime_preinjective": True,
            "torsion_before": cur_tc.bit_count(),
            "torsion_after": new_tc.bit_count(),
        })
        sizes.append(new_tc.bit_count())
        cur, cur_tc = new_t, new_tc
    if set(cur.ids) != table.injective:
        raise DescentStepError("chain terminated away from the injectives")
    return {
        "diagram": table.label,
        "start_summands": [list(d) for d in t.dims],
        "steps": steps,
        "step_count": len(steps),
        "torsion_sizes": sizes,
        "terminal_injectives": True,
    }
