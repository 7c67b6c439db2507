"""The cluster category of a Dynkin quiver as a finite translation quiver.

Indecomposables are the quiver's indecomposable modules together with one
shifted projective per vertex. They tile the stable translation quiver ZQ:
module positions come from walking inverse-translate orbits rightward from
the projective slice, and the glide that folds ZQ onto the category moves a
position (k, i) to (k + k_i + 2, c_i), where (k_i, c_i) is the position of
the injective at vertex i. Hom dimensions are knitted as hammocks on ZQ and
summed over the finitely many glide translates of the target.

Everything here is exact integer combinatorics; the representation-theoretic
formulas for the same numbers live in the test suite as an independent check
and are deliberately not imported.

Once ``GammaC`` is built, vertex ids are the only currency: seeds hold
summand ids, a tilting key is an int bitmask of them, and exchange data
hold ids with multiplicities. ``CVertex`` is the label of a vertex, read
back through ``g.vertices`` when a report is written.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Iterator

from .laurent import explore_exchange_graph
from .quivers import Quiver, classify_diagram, exchange_matrix, mutate_matrix, positive_roots
from .reps import euler_data, injective_dims, projective_dims

__all__ = [
    "CVertex",
    "CategorifiedSeed",
    "ExchangeData",
    "GammaC",
    "NoComplement",
    "MultipleComplements",
    "shifted_initial_seed_c",
    "exchange_data",
    "walk_tilting",
    "is_compatible",
    "lemma6_check",
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

    def sort_key(self) -> tuple:
        if self.dims is not None:
            return (0, self.dims)
        return (1, (self.shift_vertex,))

    @classmethod
    def module(cls, dims) -> "CVertex":
        return cls(tuple(int(x) for x in dims), None)

    @classmethod
    def shifted_projective(cls, i: int) -> "CVertex":
        return cls(None, int(i))

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
class CategorifiedSeed:
    """Ordered tilting object, as vertex ids, with the exchange matrix of its
    endomorphism algebra; the two mutate in lockstep."""

    summands: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]

    @cached_property
    def tilting_key(self) -> int:
        """Bitmask with bit x set iff vertex x is a summand."""
        return reduce(or_, (1 << x for x in self.summands), 0)


@dataclass(frozen=True)
class ExchangeData:
    """An exchange pair of vertex ids with the middle terms of its two
    triangles, each a tuple of (id, multiplicity) pairs sorted by id."""

    k: int
    tk: int
    tk_star: int
    e: tuple[tuple[int, int], ...]
    e_prime: tuple[tuple[int, int], ...]


Position = tuple[int, int]
# (seed, k, tk_star): a walk's mutation of summand k of seed into vertex tk_star
Edge = tuple[CategorifiedSeed, int, int]


class GammaC:
    """Translation quiver of the cluster category, with a full hom table on
    vertex ids (``index[v]`` is v's position in ``vertices``, which follow
    ``CVertex.sort_key``): ``hom_i[x][y]``, the translation ``tau_i``, and
    ``ext_free[x]``, whose bit y is set iff ext1(x, y) = ext1(y, x) = 0.
    ``proj_i[i - 1]`` and ``shift_i[i - 1]`` are the ids of the projective at
    quiver vertex i and of its shift.

    ``hammock(x)`` is the one knitting of hom dimensions: the module table of
    ``tilting`` reads it unfolded at module positions, and ``hom_i`` takes n
    knittings, one per projective folded over the glide, translated by tau:
    the vertex at (k, i) is tau^-k P_i, so its row is P_i's row read at tau^k
    of each target."""

    def __init__(self, quiver: Quiver):
        diagram = classify_diagram(quiver)
        if diagram.kind != "dynkin":
            raise ValueError(f"cluster category tables need Dynkin type, got {diagram.label}")
        self.quiver = quiver
        self.diagram = diagram
        n = quiver.n
        ed = euler_data(quiver)

        inj_lookup = {injective_dims(quiver, j): j for j in range(1, n + 1)}
        roots = positive_roots(quiver)
        self.pos_of: dict[CVertex, Position] = {}
        self.obj_at: dict[Position, CVertex] = {}
        inj_pos: dict[int, Position] = {}
        for i in range(1, n + 1):
            d = projective_dims(quiver, i)
            k = 0
            while True:
                self._place(CVertex.module(d), (k, i))
                if d in inj_lookup:
                    j = inj_lookup[d]
                    if j in inj_pos:
                        raise AssertionError("two orbits claim the same injective")
                    inj_pos[j] = (k, i)
                    break
                d = ed.inverse_coxeter_transform(d)
                if d not in roots:
                    raise AssertionError("orbit walk left the root system")
                k += 1
        if len(self.pos_of) != len(roots):
            raise AssertionError("orbit walk missed some modules")
        if len(inj_pos) != n:
            raise AssertionError("orbit walk missed some injectives")

        # glide data: row i shifts by k_i + 2 and lands on row c_i
        self._row_shift = {i: inj_pos[i][0] + 2 for i in range(1, n + 1)}
        self._row_image = {i: inj_pos[i][1] for i in range(1, n + 1)}
        self._row_preimage = {c: i for i, c in self._row_image.items()}
        if len(self._row_preimage) != n:
            raise AssertionError("the glide row map must be a permutation")

        for i in range(1, n + 1):
            ki, ci = inj_pos[i]
            self._place(CVertex.shifted_projective(i), (ki + 1, ci))
        self.vertices: tuple[CVertex, ...] = tuple(sorted(self.pos_of, key=CVertex.sort_key))
        self.index: dict[CVertex, int] = {v: x for x, v in enumerate(self.vertices)}
        rows = range(1, n + 1)
        self.proj_i: tuple[int, ...] = tuple(self.index[self.obj_at[0, i]] for i in rows)
        self.shift_i: tuple[int, ...] = tuple(self.index[CVertex.shifted_projective(i)] for i in rows)
        self.max_slice = max(k for k, _ in self.obj_at)

        self._out_nb = {v: [t for s, t in quiver.arrows if s == v] for v in range(1, n + 1)}
        self._in_nb = {v: [s for s, t in quiver.arrows if t == v] for v in range(1, n + 1)}
        self._slice_order = list(reversed(quiver.topological_order()))

        self.tau_i: tuple[int, ...] = tuple(
            self._id_at((k - 1, i)) for k, i in map(self.pos_of.get, self.vertices)
        )
        if len(set(self.tau_i)) != len(self.tau_i):
            raise AssertionError("translation is not a bijection")
        self._check_translation(inj_pos)

        # Hom(tau^-k P_i, y) = Hom(P_i, tau^k y)
        ids = range(len(self.vertices))
        knitted = {i: self._knit_row(self.obj_at[0, i]) for i in rows}
        tau_k = [tuple(ids)]
        while len(tau_k) <= self.max_slice:
            tau_k.append(tuple(self.tau_i[y] for y in tau_k[-1]))
        self.hom_i: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(knitted[i].__getitem__, tau_k[k])) for k, i in map(self.pos_of.get, self.vertices)
        )
        ext = [[self.hom_i[x][self.tau_i[y]] for y in ids] for x in ids]
        self.ext_free: tuple[int, ...] = tuple(
            sum(1 << y for y in ids if not ext[x][y] and not ext[y][x]) for x in ids
        )
        self._check_rigidity()

    # -- construction helpers ------------------------------------------------

    def _place(self, v: CVertex, pos: Position):
        if v in self.pos_of or pos in self.obj_at:
            raise AssertionError(f"position clash at {pos}")
        self.pos_of[v] = pos
        self.obj_at[pos] = v

    def _glide(self, pos: Position) -> Position:
        k, i = pos
        return (k + self._row_shift[i], self._row_image[i])

    def _glide_inv(self, pos: Position) -> Position:
        k, j = pos
        i = self._row_preimage[j]
        return (k - self._row_shift[i], i)

    def _suspend_pos(self, pos: Position) -> Position:
        # suspension on ZQ: one translate short of the glide
        k, i = pos
        return (k + self._row_shift[i] - 1, self._row_image[i])

    def _reduce(self, pos: Position) -> Position:
        cur = pos
        guard = 0
        while cur[0] >= 0:
            if cur in self.obj_at:
                return cur
            cur = self._glide_inv(cur)
            guard += 1
            if guard > 512:
                raise AssertionError("glide reduction ran away")
        while cur[0] <= self.max_slice:
            if cur in self.obj_at:
                return cur
            cur = self._glide(cur)
            guard += 1
            if guard > 512:
                raise AssertionError("glide reduction ran away")
        raise AssertionError(f"orbit of {pos} misses the fundamental domain")

    def _id_at(self, pos: Position) -> int:
        """Id of the vertex that the glide orbit of a ZQ position meets."""
        return self.index[self.obj_at[self._reduce(pos)]]

    def _check_translation(self, inj_pos: dict[int, Position]):
        # suspension equals translation on the quotient, and tau cross-checks
        # against the module-level facts
        ed = euler_data(self.quiver)
        shift_of = dict(zip(self.proj_i, self.shift_i))
        for x, v in enumerate(self.vertices):
            t = self.tau_i[x]
            if self._id_at(self._suspend_pos(self.pos_of[v])) != t:
                raise AssertionError(f"suspension and translation disagree at {v.render()}")
            if x in shift_of:
                if t != shift_of[x]:
                    raise AssertionError("translate of a projective is not its shift")
            elif v.is_module:
                if self.vertices[t].dims != ed.coxeter_transform(v.dims):
                    raise AssertionError("translate disagrees with the matrix transform")
            elif t != self._id_at(inj_pos[v.shift_vertex]):
                raise AssertionError("translate of a shifted projective is not the injective")

    def hammock(self, x: CVertex) -> dict[Position, int]:
        """Hammock of maps out of x on ZQ: dim Hom(x, -) in D^b(kQ) at every
        position from x's slice through the slice of its suspension.  For
        modules x and y this is dim Hom_kQ(x, y) at y's position (Happel:
        D^b(kQ) is the mesh category of ZQ)."""
        k0, i0 = self.pos_of[x]
        end = k0 + self._row_shift[i0] - 1  # slice of the suspended source
        sx = self._suspend_pos((k0, i0))
        h: dict[Position, int] = {}
        for k in range(k0, end + 1):
            for v in self._slice_order:
                raw = (
                    sum(h.get((k, m), 0) for m in self._out_nb[v])
                    + sum(h.get((k - 1, j), 0) for j in self._in_nb[v])
                    - h.get((k - 1, v), 0)
                )
                val = raw + ((k, v) == (k0, i0)) + ((k, v) == sx)
                if val < 0 or (raw < 0 and (k, v) != sx):
                    raise AssertionError(f"mesh count went negative at {(k, v)}")
                h[(k, v)] = val
        if h[(k0, i0)] != 1:
            raise AssertionError("hammock source is not one dimensional")
        if any(h[(end, v)] for v in self._slice_order):
            raise AssertionError("hammock does not vanish past the suspended source")
        return h

    def _knit_row(self, x: CVertex) -> tuple[int, ...]:
        """The hammock of x folded over the glide; the row of hom dimensions
        from x to every vertex."""
        row = [0] * len(self.vertices)
        for pos, h in self.hammock(x).items():
            if h:
                row[self._id_at(pos)] += h
        return tuple(row)

    def _check_rigidity(self):
        for x, v in enumerate(self.vertices):
            if self.hom_i[x][x] != 1:
                raise AssertionError(f"{v.render()} is not a brick")
            if self.hom_i[x][self.tau_i[x]] != 0:
                raise AssertionError(f"{v.render()} is not rigid")


# ---------------------------------------------------------------------------
# tilting objects and mutation


def shifted_initial_seed_c(g: GammaC) -> CategorifiedSeed:
    """Shift of the projective generator, where every walk starts; same
    endomorphism quiver, and the seed whose summands track the cluster
    variables one to one."""
    return CategorifiedSeed(g.shift_i, exchange_matrix(g.quiver))


def _partner(g: GammaC, seed: CategorifiedSeed, k: int, others: int) -> int:
    """The exchange partner of summand k of a basic seed, given ``others``,
    the AND of the other summands' ext_free masks."""
    tk = seed.summands[k - 1]
    mask = others & ~seed.tilting_key
    if not mask:
        raise NoComplement(f"no exchange partner for {g.vertices[tk].render()}")
    if mask & (mask - 1):
        raise MultipleComplements(f"{mask.bit_count()} partners for {g.vertices[tk].render()}")
    tk_star = mask.bit_length() - 1
    if g.hom_i[tk][g.tau_i[tk_star]] != 1:
        raise AssertionError("exchange pair does not have a one dimensional extension space")
    return tk_star


def _mutated(seed: CategorifiedSeed, k: int, tk_star: int, key: int) -> CategorifiedSeed:
    """The seed with summand k replaced by its partner ``tk_star``, whose
    tilting key ``key`` the caller has already derived by XOR."""
    summands = seed.summands[: k - 1] + (tk_star,) + seed.summands[k:]
    nxt = CategorifiedSeed(summands, mutate_matrix(seed.b, k))
    vars(nxt)["tilting_key"] = key  # fills the cached_property
    return nxt


def exchange_data(seed: CategorifiedSeed, k: int, tk_star: int) -> ExchangeData:
    """The exchange of summand k for its partner ``tk_star``, with the middle
    terms of its two triangles read off column k of the seed's matrix."""
    col = [row[k - 1] for row in seed.b]
    e = tuple(sorted((x, c) for x, c in zip(seed.summands, col) if c > 0))
    e_prime = tuple(sorted((x, -c) for x, c in zip(seed.summands, col) if c < 0))
    return ExchangeData(k, seed.summands[k - 1], tk_star, e, e_prime)


def walk_tilting(g: GammaC) -> Iterator[Edge]:
    """Breadth-first walk over every tilting object from the shifted
    projective generator P[1], whose summand P_i[1] stands for the initial
    cluster variable x_i, yielding each mutation edge ``(seed, k, tk_star)``:
    summand k of ``seed`` is exchanged for the vertex ``tk_star``.

    Each tilting object is expanded once, as the seed that first reached it,
    and its edges come out for k = 1..n in turn, so ``k == 1`` marks a newly
    expanded seed; the objects come out in the order in which
    ``explore_exchange_graph`` discovers their clusters. The mask of the
    summands other than k is the AND of a prefix and a suffix of their
    ext_free masks: 2n ANDs per object. Every edge runs the checks of the
    partner search and derives the next key by XOR; only a key not seen
    before gets its seed built, with the mutated matrix. An edge's exchange
    data is ``exchange_data(seed, k, tk_star)``, for the callers that read it.
    """
    start = shifted_initial_seed_c(g)
    seen = {start.tilting_key}
    queue = deque([start])
    full = (1 << len(g.vertices)) - 1
    while queue:
        seed = queue.popleft()
        key = seed.tilting_key
        masks = [g.ext_free[x] for x in seed.summands]
        prefix = list(accumulate(masks, and_, initial=full))  # prefix[j]: AND of masks[:j]
        suffix = list(accumulate(reversed(masks), and_, initial=full))[::-1]  # masks[j:]
        for k in range(1, g.quiver.n + 1):
            tk_star = _partner(g, seed, k, prefix[k - 1] & suffix[k])
            yield seed, k, tk_star
            nkey = key ^ (1 << seed.summands[k - 1]) ^ (1 << tk_star)
            if nkey not in seen:
                seen.add(nkey)
                queue.append(_mutated(seed, k, tk_star, nkey))


# ---------------------------------------------------------------------------
# compatibility


def is_compatible(g: GammaC, x: int, xd: ExchangeData) -> bool:
    """Either vertex x is the desuspension of one of the pair, or the hom
    count to the pair matches the larger of the hom counts to the two middle
    terms."""
    if g.tau_i[x] in (xd.tk, xd.tk_star):
        return True
    row = g.hom_i[x]
    lhs = row[xd.tk] + row[xd.tk_star]
    return lhs == max(sum(c * row[v] for v, c in mid) for mid in (xd.e, xd.e_prime))


def lemma6_check(g: GammaC, xd: ExchangeData) -> tuple[bool, ...]:
    """For every vertex id m: dual compatibility of m agrees with
    compatibility of m for the double-shifted pair.

    Dual criterion: m is the suspension of one of the pair, or the hom count
    from the pair into m matches the larger of the counts from the middle
    terms. The double shift acts on the translation quiver as tau twice; the
    shifted pair is built once for every m.
    """
    hom, tau = g.hom_i, g.tau_i
    e2, e2_prime = (tuple(sorted((tau[tau[v]], c) for v, c in mid)) for mid in (xd.e, xd.e_prime))
    shifted = ExchangeData(xd.k, tau[tau[xd.tk]], tau[tau[xd.tk_star]], e2, e2_prime)
    return tuple(
        (
            x in (tau[xd.tk], tau[xd.tk_star])
            or hom[xd.tk][x] + hom[xd.tk_star][x]
            == max(sum(c * hom[v][x] for v, c in mid) for mid in (xd.e, xd.e_prime))
        )
        == is_compatible(g, x, shifted)
        for x in range(len(g.vertices))
    )


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


def _theorem1_report(g: GammaC, edges: Iterable[Edge]) -> dict:
    """The report of ``theorem1_injectivity`` over the edges of a walk of g,
    for callers that walk g for checks of their own as well."""
    tau_i, hom_i = g.tau_i, g.hom_i
    checked_tiltings = lemma7_cases = 0
    failures: list[dict] = []
    for seed, k, _ in edges:
        if k == 1:
            checked_tiltings += 1
            shifted = {tau_i[t] for t in seed.summands}
            admissible = [m for m in range(len(g.vertices)) if m not in shifted]
            # column m of the summands' hom rows is m's dimension vector
            columns = list(zip(*(hom_i[t] for t in seed.summands)))
            first: dict[tuple[int, ...], int] = {}
            for m in admissible:
                vec = columns[m]
                if first.setdefault(vec, m) != m:
                    failures.append(
                        {
                            "tilting": [g.vertices[t].render() for t in seed.summands],
                            "first": g.vertices[first[vec]].render(),
                            "second": g.vertices[m].render(),
                            "vector": list(vec),
                        }
                    )
        # the next seed differs only by tk -> tk_star and tau is a bijection,
        # so only tau(tk_star) can enter the shifted summands: nothing to check
        lemma7_cases += len(admissible)
    return {
        "diagram": g.diagram.label,
        "vertices": len(g.vertices),
        "tilting_count": checked_tiltings,
        "injective_everywhere": not failures,
        "propagation_cases": lemma7_cases,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# denominators against hom counts


def den_vs_hom_crosscheck(quiver: Quiver) -> dict:
    """Pair every vertex with a cluster variable along one walk of the
    tilting objects, and compare its denominator with its hom counts.

    The walk from P[1] expands the objects in the order in which one
    ``explore_exchange_graph`` finds their seeds; an object whose matrix is
    not its seed's, or a walk and an exploration of different lengths, is an
    ``order`` mismatch that ends the walk. Each object pairs its summands with
    its seed's cluster, and each edge pairs ``tk_star`` with the variable that
    explore's mutation of that seed at k made; a vertex already paired with
    another polynomial is a ``path`` mismatch. The walk takes every edge of
    the exchange graph, so this covers every mutation sequence. Then every
    vertex must be paired, and the denominator vector of its variable must be
    its hom counts (hom(P_p, t))_p from the projectives, or -e_j at P_j[1].
    """
    g = GammaC(quiver)
    res = explore_exchange_graph(exchange_matrix(quiver))
    expansions = [*zip(res.seeds, res.mutations), (None, ())]  # the last marks explore's end
    paired, mismatches = {}, []
    tilting_objects = edges = 0

    def render(seed):
        return [g.vertices[t].render() for t in seed.summands]

    def pair(t, x, seed, k):
        first = paired.setdefault(t, x)
        if first != x:
            where = {"summand": g.vertices[t].render(), "tilting": render(seed), "k": k}
            mismatches.append({"check": "path", **where, "paired": first.render(), "reached": x.render()})

    for seed, k, tk_star in walk_tilting(g):
        if k == 1:
            s, made = expansions[tilting_objects]
            if s is None or s.b != seed.b:
                mismatches.append({"check": "order", "position": tilting_objects, "tilting": render(seed)})
                break
            tilting_objects += 1
            for j, (t, x) in enumerate(zip(seed.summands, s.cluster), 1):
                pair(t, x, seed, j)
        edges += 1
        pair(tk_star, made[k - 1], seed, k)
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
