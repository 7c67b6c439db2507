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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import and_
import random
from typing import Iterator

from .laurent import Seed, initial_seed, seed_mutate
from .quivers import Quiver, classify_diagram, exchange_matrix, mutate_matrix, positive_roots
from .reps import euler_data, injective_dims, projective_dims

__all__ = [
    "CVertex",
    "CObject",
    "CategorifiedSeed",
    "ExchangeData",
    "GammaC",
    "NoComplement",
    "MultipleComplements",
    "MInShiftedT",
    "initial_seed_c",
    "shifted_initial_seed_c",
    "mutate_tilting",
    "is_tilting_c",
    "walk_tilting",
    "enumerate_tilting_objects",
    "is_compatible",
    "lemma6_check",
    "dim_vector_mod_B",
    "theorem1_injectivity",
    "den_vs_hom_crosscheck",
]


class NoComplement(RuntimeError):
    """No second completion of an almost complete tilting object: engine bug."""


class MultipleComplements(RuntimeError):
    """More than two completions found: engine bug."""


class MInShiftedT(ValueError):
    """The object lies in the shift of the tilting object, so it does not
    correspond to a module over the endomorphism algebra."""


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

    def to_json(self) -> dict:
        if self.is_module:
            return {"kind": "module", "dims": list(self.dims)}
        return {"kind": "shifted_projective", "vertex": self.shift_vertex}

    def __repr__(self):
        return self.render()


@dataclass(frozen=True)
class CObject:
    """Finite direct sum, stored as sorted (vertex, multiplicity) pairs."""

    multiplicities: tuple[tuple[CVertex, int], ...]

    @classmethod
    def of(cls, pairs) -> "CObject":
        merged: dict[CVertex, int] = {}
        for v, m in pairs:
            m = int(m)
            if m < 0:
                raise ValueError("multiplicities must be nonnegative")
            if m:
                merged[v] = merged.get(v, 0) + m
        return cls(tuple(sorted(merged.items(), key=lambda p: p[0].sort_key())))

    @classmethod
    def of_vertices(cls, *vertices: CVertex) -> "CObject":
        return cls.of((v, 1) for v in vertices)

    @property
    def is_basic(self) -> bool:
        return all(m == 1 for _, m in self.multiplicities)

    @property
    def summands(self) -> tuple[CVertex, ...]:
        return tuple(v for v, _ in self.multiplicities)

    @property
    def is_zero(self) -> bool:
        return not self.multiplicities

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for v, m in self.multiplicities:
            parts.append(v.render() if m == 1 else f"{v.render()}^{m}")
        return " + ".join(parts)


@dataclass(frozen=True)
class CategorifiedSeed:
    """Ordered tilting object with the exchange matrix of its endomorphism
    algebra; the two mutate in lockstep."""

    summands: tuple[CVertex, ...]
    b: tuple[tuple[int, ...], ...]

    @cached_property
    def tilting_key(self) -> frozenset:
        return frozenset(self.summands)


@dataclass(frozen=True)
class ExchangeData:
    """An exchange pair with the middle terms of its two triangles."""

    k: int
    tk: CVertex
    tk_star: CVertex
    e: CObject
    e_prime: CObject


Position = tuple[int, int]
Edge = tuple[CategorifiedSeed, int, CategorifiedSeed, ExchangeData]


class GammaC:
    """Translation quiver of the cluster category, with a full hom table on
    vertex ids (``index[v]`` is v's position in ``vertices``): ``hom_i[x][y]``,
    the translation ``tau_i``, and ``ext_free[x]``, whose bit y is set iff
    ext1(x, y) = ext1(y, x) = 0."""

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
        self.proj_vertex: dict[int, CVertex] = {}
        self.inj_vertex: dict[int, CVertex] = {}
        self.shift_obj: dict[int, CVertex] = {}
        inj_pos: dict[int, Position] = {}
        for i in range(1, n + 1):
            d = projective_dims(quiver, i)
            k = 0
            while True:
                v = CVertex.module(d)
                if k == 0:
                    self.proj_vertex[i] = v
                self._place(v, (k, i))
                if d in inj_lookup:
                    j = inj_lookup[d]
                    if j in inj_pos:
                        raise AssertionError("two orbits claim the same injective")
                    inj_pos[j] = (k, i)
                    self.inj_vertex[j] = v
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
            sp = CVertex.shifted_projective(i)
            ki, ci = inj_pos[i]
            self._place(sp, (ki + 1, ci))
            self.shift_obj[i] = sp
        self.vertices: tuple[CVertex, ...] = tuple(sorted(self.pos_of, key=CVertex.sort_key))
        self.max_slice = max(k for k, _ in self.obj_at)

        self._out_nb = {v: [t for s, t in quiver.arrows if s == v] for v in range(1, n + 1)}
        self._in_nb = {v: [s for s, t in quiver.arrows if t == v] for v in range(1, n + 1)}
        self._slice_order = list(reversed(quiver.topological_order()))

        self.tau: dict[CVertex, CVertex] = {}
        for v, (k, i) in self.pos_of.items():
            self.tau[v] = self.obj_at[self._reduce((k - 1, i))]
        self.tau_inv = {w: v for v, w in self.tau.items()}
        if len(self.tau_inv) != len(self.tau):
            raise AssertionError("translation is not a bijection")
        self._check_translation()

        self.index: dict[CVertex, int] = {v: x for x, v in enumerate(self.vertices)}
        self.tau_i: tuple[int, ...] = tuple(self.index[self.tau[v]] for v in self.vertices)
        self.hom_i: tuple[tuple[int, ...], ...] = tuple(self._knit_row(x) for x in self.vertices)
        ids = range(len(self.vertices))
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

    def _check_translation(self):
        # suspension equals translation on the quotient, and tau cross-checks
        # against the module-level facts
        ed = euler_data(self.quiver)
        n = self.quiver.n
        proj = {projective_dims(self.quiver, i): i for i in range(1, n + 1)}
        for v in self.pos_of:
            s = self.obj_at[self._reduce(self._suspend_pos(self.pos_of[v]))]
            if s != self.tau[v]:
                raise AssertionError(f"suspension and translation disagree at {v.render()}")
            t = self.tau[v]
            if v.is_module and v.dims in proj:
                if t != self.shift_obj[proj[v.dims]]:
                    raise AssertionError("translate of a projective is not its shift")
            elif v.is_module:
                if t.dims != ed.coxeter_transform(v.dims):
                    raise AssertionError("translate disagrees with the matrix transform")
            else:
                if t != self.inj_vertex[v.shift_vertex]:
                    raise AssertionError("translate of a shifted projective is not the injective")

    def _knit_row(self, x: CVertex) -> tuple[int, ...]:
        """Hammock of maps out of x on ZQ, then fold over the glide; the row
        of hom dimensions from x to every vertex."""
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
        row = []
        for y in self.vertices:
            cur = self.pos_of[y]
            while cur[0] >= k0:
                cur = self._glide_inv(cur)
            cur = self._glide(cur)
            total = 0
            while cur[0] <= end:
                total += h.get(cur, 0)
                cur = self._glide(cur)
            row.append(total)
        return tuple(row)

    def _check_rigidity(self):
        for v in self.vertices:
            if self.hom_c_dim(v, v) != 1:
                raise AssertionError(f"{v.render()} is not a brick")
            if self.ext1_c_dim(v, v) != 0:
                raise AssertionError(f"{v.render()} is not rigid")

    # -- queries ---------------------------------------------------------------

    def hom_c_dim(self, x: CVertex, y: CVertex) -> int:
        return self.hom_i[self.index[x]][self.index[y]]

    def ext1_c_dim(self, x: CVertex, y: CVertex) -> int:
        return self.hom_i[self.index[x]][self.tau_i[self.index[y]]]

    def hom_to_object(self, x: CVertex, obj: CObject) -> int:
        return sum(m * self.hom_c_dim(x, v) for v, m in obj.multiplicities)

    def hom_from_object(self, obj: CObject, y: CVertex) -> int:
        return sum(m * self.hom_c_dim(v, y) for v, m in obj.multiplicities)

    def shift_object(self, obj: CObject, times: int = 1) -> CObject:
        pairs = []
        for v, m in obj.multiplicities:
            w = v
            for _ in range(times):
                w = self.tau[w]
            pairs.append((w, m))
        return CObject.of(pairs)


# ---------------------------------------------------------------------------
# tilting objects and mutation


def is_tilting_c(g: GammaC, t: CObject) -> bool:
    """Basic, n summands, no extensions in either direction or with itself."""
    if not t.is_basic or len(t.summands) != g.quiver.n:
        return False
    ids = [g.index[v] for v in t.summands]
    return all(g.ext_free[x] >> y & 1 for x in ids for y in ids)


def initial_seed_c(g: GammaC) -> CategorifiedSeed:
    """The projective generator with the quiver's own exchange matrix."""
    t = tuple(g.proj_vertex[i] for i in range(1, g.quiver.n + 1))
    return CategorifiedSeed(t, exchange_matrix(g.quiver))


def shifted_initial_seed_c(g: GammaC) -> CategorifiedSeed:
    """Shift of the projective generator; same endomorphism quiver, and the
    seed whose summands track the cluster variables one to one."""
    t = tuple(g.shift_obj[i] for i in range(1, g.quiver.n + 1))
    return CategorifiedSeed(t, exchange_matrix(g.quiver))


def mutate_tilting(g: GammaC, seed: CategorifiedSeed, k: int) -> tuple[CategorifiedSeed, ExchangeData]:
    """Replace the k-th summand by its unique exchange partner.

    The partner is the one vertex outside the seed that is ext-free with
    every other summand (every vertex is rigid, as construction asserts): one
    AND of ext_free masks. Uniqueness is a theorem and is asserted, not
    assumed. Middle-term multiplicities are read off the pre-mutation matrix
    column.
    """
    n = g.quiver.n
    if not (1 <= k <= n):
        raise IndexError(f"mutation index {k} out of range 1..{n}")
    idx = [g.index[v] for v in seed.summands]
    if len(set(idx)) != n:
        raise ValueError("seed is not basic")
    masks = (g.ext_free[x] for i, x in enumerate(idx) if i != k - 1)
    mask = reduce(and_, masks, (1 << len(g.vertices)) - 1) & ~sum(1 << x for x in idx)
    tk = seed.summands[k - 1]
    if not mask:
        raise NoComplement(f"no exchange partner for {tk.render()}")
    if mask & (mask - 1):
        raise MultipleComplements(f"{mask.bit_count()} partners for {tk.render()}")
    star = mask.bit_length() - 1
    if g.hom_i[idx[k - 1]][g.tau_i[star]] != 1:
        raise AssertionError("exchange pair does not have a one dimensional extension space")
    tk_star = g.vertices[star]
    col = [seed.b[i][k - 1] for i in range(n)]
    e = CObject.of((seed.summands[i], col[i]) for i in range(n) if col[i] > 0)
    e_prime = CObject.of((seed.summands[i], -col[i]) for i in range(n) if col[i] < 0)
    new_summands = tuple(tk_star if i == k - 1 else v for i, v in enumerate(seed.summands))
    new_seed = CategorifiedSeed(new_summands, mutate_matrix(seed.b, k))
    return new_seed, ExchangeData(k, tk, tk_star, e, e_prime)


def walk_tilting(g: GammaC) -> Iterator[Edge]:
    """Breadth-first walk over every tilting object from the projective
    generator, yielding each mutation edge ``(seed, k, next_seed, exchange)``.

    Each tilting object is expanded once, as the seed that first reached it,
    and its edges come out for k = 1..n in turn, so ``k == 1`` marks a newly
    expanded seed.
    """
    start = initial_seed_c(g)
    seen = {start.tilting_key}
    queue = deque([start])
    while queue:
        seed = queue.popleft()
        for k in range(1, g.quiver.n + 1):
            nxt, xd = mutate_tilting(g, seed, k)
            yield seed, k, nxt, xd
            if nxt.tilting_key not in seen:
                seen.add(nxt.tilting_key)
                queue.append(nxt)


def enumerate_tilting_objects(g: GammaC) -> dict[frozenset, tuple[int, ...]]:
    """All tilting objects, reached by mutation from the projective generator;
    values are mutation paths from that seed."""
    paths: dict[frozenset, tuple[int, ...]] = {initial_seed_c(g).tilting_key: ()}
    for seed, k, nxt, _ in walk_tilting(g):
        if nxt.tilting_key not in paths:
            paths[nxt.tilting_key] = paths[seed.tilting_key] + (k,)
    return paths


# ---------------------------------------------------------------------------
# compatibility


def is_compatible(g: GammaC, m: CVertex, xd: ExchangeData) -> bool:
    """Either m is the desuspension of one of the pair, or the hom count to
    the pair matches the larger of the hom counts to the two middle terms."""
    if m == g.tau_inv[xd.tk] or m == g.tau_inv[xd.tk_star]:
        return True
    lhs = g.hom_c_dim(m, xd.tk) + g.hom_c_dim(m, xd.tk_star)
    return lhs == max(g.hom_to_object(m, xd.e), g.hom_to_object(m, xd.e_prime))


def lemma6_check(g: GammaC, m: CVertex, xd: ExchangeData) -> bool:
    """Dual compatibility agrees with compatibility for the double-shifted pair.

    Dual criterion: m is the suspension of one of the pair, or the hom count
    from the pair into m matches the larger of the counts from the middle
    terms. The double shift acts on the translation quiver as tau twice.
    """
    dual = (
        m == g.tau[xd.tk]
        or m == g.tau[xd.tk_star]
        or g.hom_c_dim(xd.tk, m) + g.hom_c_dim(xd.tk_star, m)
        == max(g.hom_from_object(xd.e, m), g.hom_from_object(xd.e_prime, m))
    )
    shifted = ExchangeData(
        xd.k,
        g.tau[g.tau[xd.tk]],
        g.tau[g.tau[xd.tk_star]],
        g.shift_object(xd.e, 2),
        g.shift_object(xd.e_prime, 2),
    )
    return dual == is_compatible(g, m, shifted)


# ---------------------------------------------------------------------------
# dimension vectors over the endomorphism algebra


def dim_vector_mod_B(g: GammaC, seed: CategorifiedSeed, m: CVertex) -> tuple[int, ...]:
    """Dimension vector of the module corresponding to m over the endomorphism
    algebra of the seed's tilting object."""
    if m in {g.tau[t] for t in seed.summands}:
        raise MInShiftedT(f"{m.render()} lies in the shift of the tilting object")
    return tuple(g.hom_c_dim(t, m) for t in seed.summands)


def theorem1_injectivity(quiver: Quiver) -> dict:
    """Sweep every tilting object: distinct admissible objects have distinct
    dimension vectors, and the one-step propagation alternative holds for
    every mutation.

    The propagation step: if m avoids the shift of the tilting object and the
    mutation replaces summand k, then m either equals the shift of the new
    summand or still avoids the shift of the mutated tilting object, and its
    dimension vector there is well defined.
    """
    g = GammaC(quiver)
    index, tau_i, hom_i = g.index, g.tau_i, g.hom_i
    checked_tiltings = lemma7_cases = 0
    failures: list[dict] = []
    for seed, k, nxt, xd in walk_tilting(g):
        if k == 1:
            checked_tiltings += 1
            summands = [index[t] for t in seed.summands]
            shifted = {tau_i[t] for t in summands}
            admissible = [m for m in range(len(g.vertices)) if m not in shifted]
            # column m of the summands' hom rows is m's dimension vector
            columns = list(zip(*(hom_i[t] for t in summands)))
            first: dict[tuple[int, ...], int] = {}
            for m in admissible:
                vec = columns[m]
                if first.setdefault(vec, m) != m:
                    failures.append(
                        {
                            "tilting": [t.render() for t in seed.summands],
                            "first": g.vertices[first[vec]].render(),
                            "second": g.vertices[m].render(),
                            "vector": list(vec),
                        }
                    )
        lemma7_cases += len(admissible)
        entered = {tau_i[index[t]] for t in nxt.summands} - shifted
        for m in sorted(entered - {tau_i[index[xd.tk_star]]}):
            failures.append(
                {
                    "tilting": [t.render() for t in seed.summands],
                    "k": k,
                    "object": g.vertices[m].render(),
                    "reason": "entered the shifted summands without being the new one",
                }
            )
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


def den_vs_hom_crosscheck(
    quiver: Quiver,
    depth: int,
    samples: int | None = None,
    rng_seed: int = 0,
) -> dict:
    """Run the variable engine and the category in lockstep and compare.

    Starting pair: the initial cluster tracks the shifted projective
    generator, so variable x_i corresponds to the shifted projective at i.
    After each mutation step, every current variable's denominator vector
    must match the hom counts from the projective generator to the tracked
    summand; variables that are still initial must show den = -e_j. With
    samples=None all mutation sequences of length <= depth are checked,
    otherwise that many random sequences.
    """
    g = GammaC(quiver)
    n = quiver.n
    b0 = exchange_matrix(quiver)
    proj = [g.proj_vertex[j] for j in range(1, n + 1)]
    if samples is None:
        sequences = [
            seq for d in range(0, depth + 1) for seq in product(range(1, n + 1), repeat=d)
        ]
    else:
        rng = random.Random(rng_seed)
        sequences = [
            tuple(rng.randint(1, n) for _ in range(rng.randint(1, depth)))
            for _ in range(samples)
        ]
    checks = 0
    mismatches: list[dict] = []
    for seq in sequences:
        ls = initial_seed(b0)
        cs = shifted_initial_seed_c(g)
        for k in seq:
            ls = seed_mutate(ls, k)
            cs, _ = mutate_tilting(g, cs, k)
            if ls.b != cs.b:
                raise AssertionError("exchange matrices drifted apart")
            for i in range(n):
                den = ls.cluster[i].denominator_vector()
                t = cs.summands[i]
                if t.is_module:
                    want = tuple(g.hom_c_dim(p, t) for p in proj)
                else:
                    j = t.shift_vertex
                    want = tuple(-(v == j) for v in range(1, n + 1))
                checks += 1
                if den != want:
                    mismatches.append(
                        {
                            "sequence": list(seq),
                            "position": i + 1,
                            "denominator": list(den),
                            "hom_vector": list(want),
                            "summand": t.render(),
                        }
                    )
    return {
        "diagram": g.diagram.label,
        "sequences": len(sequences),
        "checks": checks,
        "ok": not mismatches,
        "mismatches": mismatches,
    }
