"""Integer Laurent polynomials, seeds and exchange graph exploration.

A Laurent polynomial is stored as a map from exponent vectors (one integer
per variable, negatives allowed) to nonzero integer coefficients. All
arithmetic is exact with arbitrary-precision integers; division is only
available as exact division and raises DivisionNotExact otherwise, which is
how the Laurent phenomenon is surfaced as a runtime check.

The exchange relation reads column k of the exchange matrix:

    x_k' = (prod_i x_i^{[b_ik]_+} + prod_i x_i^{[-b_ik]_+}) / x_k

Seeds and polynomials are immutable; a cluster's key is the frozenset of its
polynomials. explore_exchange_graph keeps a call-local exchange table, (x_k,
{(x_i, b_ik) : b_ik != 0}) to x_k' and back, and on a miss reads d(x_k') =
d(binomial) - d(x_k) without dividing: the variable found so far with that
denominator vector is taken when x_k times it is the binomial, a proof in the
domain Z[x^+-1]; else it divides. In finite type, where denominator vectors
separate variables (Fomin-Zelevinsky), that is one division per new variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quivers import classify_diagram, mutate_matrix, quiver_from_matrix

__all__ = [
    "LaurentPoly",
    "DivisionNotExact",
    "Seed",
    "initial_seed",
    "seed_mutate",
    "ExplorationResult",
    "explore_exchange_graph",
    "InjectivityResult",
    "den_injectivity_check",
]


class DivisionNotExact(ArithmeticError):
    """Raised when a Laurent polynomial quotient has a nonzero remainder."""


class LaurentPoly:
    """Immutable Laurent polynomial in nvars variables over the integers."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            c = int(coeff)
            if c:
                e = tuple(int(x) for x in exps)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length")
                clean[e] = clean.get(e, 0) + c
        self._terms = {e: c for e, c in clean.items() if c}
        self._hash = None

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "LaurentPoly":
        """Arithmetic result on checked operands: only zero terms are dropped."""
        p = cls.__new__(cls)
        p.nvars, p._terms, p._hash = nvars, {e: c for e, c in terms.items() if c}, None
        return p

    # construction helpers

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        """Generator x_i, 1-based."""
        if not (1 <= i <= nvars):
            raise IndexError(f"variable index {i} out of range 1..{nvars}")
        return cls(nvars, {tuple(int(j == i - 1) for j in range(nvars)): 1})

    @classmethod
    def monomial(cls, exps, coeff: int = 1) -> "LaurentPoly":
        return cls(len(tuple(exps)), {tuple(exps): coeff})

    # inspection

    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        # both constructors drop zero terms, so equal polynomials have equal dicts
        return isinstance(other, LaurentPoly) and (self.nvars, self._terms) == (other.nvars, other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPoly({self.render()!r})"

    # arithmetic

    def _check(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise TypeError("expected a LaurentPoly")
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._of(self.nvars, out)

    def __neg__(self):
        return LaurentPoly._of(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._of(self.nvars, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only via exact_div")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPoly.one(self.nvars) if result is None else result

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other.

        Raises ZeroDivisionError on a zero divisor and DivisionNotExact when
        the quotient is not an integer Laurent polynomial.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        n = self.nvars
        shift_a = tuple(min(e[i] for e in self._terms) for i in range(n))
        shift_b = tuple(min(e[i] for e in other._terms) for i in range(n))
        num = {tuple(a - s for a, s in zip(e, shift_a)): Fraction(c) for e, c in self._terms.items()}
        den = {tuple(a - s for a, s in zip(e, shift_b)): Fraction(c) for e, c in other._terms.items()}
        lead_b = max(den)
        quot: dict[tuple[int, ...], Fraction] = {}
        while num:
            lead_r = max(num)
            qe = tuple(a - b for a, b in zip(lead_r, lead_b))
            if any(x < 0 for x in qe):
                raise DivisionNotExact("leading term not divisible")
            qc = num[lead_r] / den[lead_b]
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            for e, c in den.items():
                te = tuple(a + b for a, b in zip(qe, e))
                val = num.get(te, Fraction(0)) - qc * c
                if val:
                    num[te] = val
                else:
                    num.pop(te, None)
        back = tuple(a - b for a, b in zip(shift_a, shift_b))
        out: dict[tuple[int, ...], int] = {}
        for e, c in quot.items():
            if c.denominator != 1:
                raise DivisionNotExact("quotient has a non-integer coefficient")
            out[tuple(a + b for a, b in zip(e, back))] = c.numerator
        return LaurentPoly._of(n, out)

    # rendering

    def render(self) -> str:
        """Canonical string, terms in descending lex order of exponents.

        Deterministic and injective on polynomials; used for output, for
        sorted output order and in golden tests.
        """
        if not self._terms:
            return "0"
        parts = []
        for exps in sorted(self._terms, reverse=True):
            coeff = self._terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e:
                    factors.append(f"x{i + 1}^{e}")
            mono = "*".join(factors)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append((coeff < 0, body))
        first_neg, first = parts[0]
        text = ("-" if first_neg else "") + first
        for neg, body in parts[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def denominator_vector(self) -> tuple[int, ...]:
        """d_i = -(minimal exponent of variable i); zero polynomial is invalid."""
        if not self._terms:
            raise ValueError("zero polynomial has no denominator vector")
        return tuple(-min(e[i] for e in self._terms) for i in range(self.nvars))


# ---------------------------------------------------------------------------
# seeds


@dataclass(frozen=True)
class Seed:
    """Exchange matrix plus cluster, both immutable."""

    b: tuple[tuple[int, ...], ...]
    cluster: tuple[LaurentPoly, ...]

    def __post_init__(self):
        n = len(self.b)
        if len(self.cluster) != n:
            raise ValueError("cluster size does not match matrix size")

    def cluster_key(self) -> frozenset[LaurentPoly]:
        """Unordered-cluster key: the frozenset of the cluster's polynomials."""
        return frozenset(self.cluster)


def initial_seed(b) -> Seed:
    n = len(b)
    bb = tuple(tuple(int(x) for x in row) for row in b)
    return Seed(bb, tuple(LaurentPoly.variable(n, i) for i in range(1, n + 1)))


def _exchange_binomial(s: Seed, k: int) -> LaurentPoly:
    """prod_i x_i^{[b_ik]_+} + prod_i x_i^{[-b_ik]_+}, reading column k of B."""
    # each product starts from its first factor; an empty product is 1
    plus = minus = None
    for p, row in zip(s.cluster, s.b):
        bik = row[k - 1]
        if bik > 0:
            f = p ** bik
            plus = f if plus is None else plus * f
        elif bik < 0:
            f = p ** -bik
            minus = f if minus is None else minus * f
    one = LaurentPoly.one(len(s.b))
    return (one if plus is None else plus) + (one if minus is None else minus)


def seed_mutate(s: Seed, k: int) -> Seed:
    """Mutate the seed at vertex k (1-based), reading column k of B."""
    n = len(s.b)
    if not (1 <= k <= n):
        raise IndexError(f"mutation vertex {k} out of range 1..{n}")
    new_var = _exchange_binomial(s, k).exact_div(s.cluster[k - 1])
    cluster = tuple(new_var if i == k - 1 else p for i, p in enumerate(s.cluster))
    return Seed(mutate_matrix(s.b, k), cluster)


# ---------------------------------------------------------------------------
# exchange graph


@dataclass
class ExplorationResult:
    """Breadth-first exploration summary.

    seeds maps each cluster key (the frozenset of its polynomials) to the
    first seed found with that cluster; variables collects every cluster
    variable expressed in the initial cluster's coordinates. truncated means
    the depth cutoff hid at least one unvisited cluster.
    """

    seeds: dict[frozenset[LaurentPoly], Seed]
    variables: set[LaurentPoly]
    truncated: bool
    depth_reached: int

    @property
    def cluster_count(self) -> int:
        return len(self.seeds)

    @property
    def variable_count(self) -> int:
        return len(self.variables)


def _exchange_quotient(binom: LaurentPoly, old: LaurentPoly, known: dict) -> LaurentPoly:
    """binom / old: the known variable under d(binom) - d(old) (lowest exponents
    add under products) if old times it is binom, else divided out and recorded."""
    d = tuple(a - c for a, c in zip(binom.denominator_vector(), old.denominator_vector()))
    new = known.get(d)
    if new is None or old * new != binom:
        new = known[d] = binom.exact_div(old)
    return new


def explore_exchange_graph(b, max_depth: int | None = None) -> ExplorationResult:
    """Enumerate clusters reachable from the initial seed of ``b``.

    max_depth may be omitted only when the quiver of ``b`` has Dynkin shape
    (guaranteed finite); otherwise it is required so the walk cannot run
    forever. When the cutoff hides further clusters the result is flagged
    truncated (checked by probing one layer past the cutoff). A Seed is built
    only for a new cluster; the probe reads cluster keys alone.
    """
    if max_depth is None:
        cls = classify_diagram(quiver_from_matrix(b))
        if cls.kind != "dynkin":
            raise ValueError(
                f"exchange graph of {cls.label} shape may be infinite; pass max_depth"
            )
    start = initial_seed(b)
    n = len(start.b)
    exchanged: dict[tuple[LaurentPoly, frozenset], LaurentPoly] = {}
    known = {p.denominator_vector(): p for p in start.cluster}

    def mutate(s: Seed, k: int) -> tuple[LaurentPoly, ...]:
        old = s.cluster[k - 1]
        rel = frozenset((p, row[k - 1]) for p, row in zip(s.cluster, s.b) if row[k - 1])
        new = exchanged.get((old, rel))
        if new is None:
            new = _exchange_quotient(_exchange_binomial(s, k), old, known)
            exchanged[old, rel] = new
            exchanged[new, frozenset((p, -bik) for p, bik in rel)] = old
        return s.cluster[: k - 1] + (new,) + s.cluster[k:]

    seeds: dict[frozenset[LaurentPoly], Seed] = {start.cluster_key(): start}
    variables: set[LaurentPoly] = set(start.cluster)
    layer = [start]
    depth = 0
    truncated = False
    while layer:
        if max_depth is not None and depth >= max_depth:
            # probe one layer to see whether the cutoff actually hid anything
            truncated = any(
                frozenset(mutate(s, k)) not in seeds for s in layer for k in range(1, n + 1)
            )
            break
        next_layer = []
        for s in layer:
            for k in range(1, n + 1):
                cluster = mutate(s, k)
                key = frozenset(cluster)
                if key not in seeds:
                    seeds[key] = t = Seed(mutate_matrix(s.b, k), cluster)
                    variables.update(cluster)
                    next_layer.append(t)
        if next_layer:
            depth += 1
        layer = next_layer
    return ExplorationResult(seeds, variables, truncated, depth)


@dataclass(frozen=True)
class InjectivityResult:
    """Outcome of a denominator-vector injectivity sweep."""

    ok: bool
    collision: tuple[LaurentPoly, LaurentPoly] | None = None

    @property
    def witness(self) -> dict | None:
        if self.collision is None:
            return None
        a, b = self.collision
        return {
            "denominator": list(a.denominator_vector()),
            "first": a.render(),
            "second": b.render(),
        }


def den_injectivity_check(polys) -> InjectivityResult:
    """Check that denominator vectors separate the given polynomials."""
    seen: dict[tuple[int, ...], LaurentPoly] = {}
    for p in sorted(polys, key=lambda q: q.render()):
        d = p.denominator_vector()
        if d in seen and seen[d] != p:
            return InjectivityResult(False, (seen[d], p))
        seen[d] = p
    return InjectivityResult(True, None)
