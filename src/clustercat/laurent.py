"""Integer Laurent polynomials, seeds and exchange graph exploration.

A Laurent polynomial is stored as a map from monomials to nonzero integer
coefficients, each monomial one int of packed exponent fields (as in
Monagan and Pearce), so a monomial product is one integer addition. All
arithmetic is exact; an exponent of 2^14 or more in magnitude raises
OverflowError instead of carrying into the next field. Division is only
available as exact division and raises DivisionNotExact otherwise, which is
how the Laurent phenomenon is surfaced as a runtime check.

The exchange relation reads column k of the exchange matrix:

    x_k' = (prod_i x_i^{[b_ik]_+} + prod_i x_i^{[-b_ik]_+}) / x_k

Seeds and polynomials are immutable; a cluster's key is the frozenset of its
polynomials. explore_exchange_graph's docstring gives its exchange table on
interned variable ids, the max rule with its certificate and the product memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

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


# A key has one _W-bit field per variable, variable 1 most significant, each
# holding e + _HALF, so lex order is integer order. With |e| < _LIMIT the sum
# or difference of two exponents fits a field too: no arithmetic here carries.
# The key of x^0 is also the mask of the fields' top bits; a packed difference
# with fields in (-_HALF, _HALF) has one set exactly when a field is negative.
_W = 16
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
_LIMIT = _HALF >> 1


def _packed(vector) -> int:
    """The fields of ``vector`` as one int, unbiased and unchecked."""
    key = 0
    for e in vector:
        key = (key << _W) + e
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple(((key >> (_W * (n - 1 - i))) & _MASK) - _HALF for i in range(n))


class LaurentPoly:
    """Immutable Laurent polynomial in nvars variables over the integers.

    _bound is at least the largest |exponent|; _box caches the denominator
    vector and the highest exponent of each variable."""

    __slots__ = ("nvars", "_terms", "_bound", "_hash", "_box")

    def __init__(self, nvars: int, terms=None):
        clean: dict[int, int] = {}
        bound = 0
        for exps, coeff in (terms or {}).items():
            c = int(coeff)
            if c:
                e = tuple(int(x) for x in exps)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length")
                bound = max([bound, *map(abs, e)])
                if bound >= _LIMIT:
                    raise OverflowError(f"exponent vector {e} leaves the range |e| < {_LIMIT}")
                key = _packed(x + _HALF for x in e)
                clean[key] = clean.get(key, 0) + c
        self.nvars, self._terms, self._bound = nvars, {k: c for k, c in clean.items() if c}, bound
        self._hash = self._box = None

    @classmethod
    def _of(cls, nvars: int, terms: dict, bound: int) -> "LaurentPoly":
        """Arithmetic result on checked operands: only zero terms are dropped."""
        p = cls.__new__(cls)
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        p.nvars, p._terms, p._bound, p._hash, p._box = nvars, terms, bound, None, None
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
        return {_unpack(k, self.nvars): c for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        # monomials have one key each and zero terms are dropped, so equal
        # polynomials have equal dicts
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
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly._of(self.nvars, out, max(self._bound, other._bound))

    def __neg__(self):
        return LaurentPoly._of(self.nvars, {k: -c for k, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        bound = self._bound + other._bound
        if bound >= _LIMIT:
            raise OverflowError(f"a product exponent could reach {bound}, past |e| < {_LIMIT}")
        bias = _packed([_HALF] * self.nvars)
        out: dict[int, int] = {}
        for k1, c1 in self._terms.items():
            k1 -= bias
            for k2, c2 in other._terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly._of(self.nvars, out, bound)

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

    def _span(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Denominator vector and highest exponent of each variable; not for zero."""
        if self._box is None:
            keys, low, high = self._terms.keys(), [], []
            for s in range(_W * (self.nvars - 1), -1, -_W):
                field = _MASK << s
                low.append(_HALF - (min(map(field.__and__, keys)) >> s))
                high.append((max(map(field.__and__, keys)) >> s) - _HALF)
            self._box = tuple(low), tuple(high)
        return self._box

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other.

        Raises ZeroDivisionError on a zero divisor and DivisionNotExact when
        the quotient is not an integer Laurent polynomial. Shifted to least
        exponents 0, A = Q*B makes Q a polynomial of degree deg_i A - deg_i B
        in x_i; so a quotient term outside the box lo..hi proves the division
        inexact, and inside it no remainder exponent leaves A's box.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        (den_a, hi_a), (den_b, hi_b) = self._span(), other._span()
        lo = [b - a for a, b in zip(den_a, den_b)]
        hi = [a - b for a, b in zip(hi_a, hi_b)]
        low, room, bias = _packed(lo), _packed(h - l for h, l in zip(hi, lo)), _packed([_HALF] * len(lo))
        num = {k: Fraction(c) for k, c in self._terms.items()}
        den = {k: Fraction(c) for k, c in other._terms.items()}
        lead_b = max(den)
        quot: dict[int, int] = {}
        while num:
            lead_r = max(num)
            # d is the quotient term's exponent vector; d - low must lie in 0..room
            d = lead_r - lead_b
            u = d - low
            if (u | (room - u)) & bias:
                raise DivisionNotExact("leading term not divisible")
            qc = num[lead_r] / den[lead_b]
            if qc.denominator != 1:
                raise DivisionNotExact("quotient has a non-integer coefficient")
            quot[d + bias] = qc.numerator
            for k, c in den.items():
                k += d
                val = num.get(k, 0) - qc * c
                if val:
                    num[k] = val
                else:
                    num.pop(k, None)
        bound = max(map(abs, lo + hi), default=0)
        if bound >= _LIMIT:
            raise OverflowError(f"a quotient exponent reaches {bound}, past |e| < {_LIMIT}")
        return LaurentPoly._of(self.nvars, quot, bound)

    # rendering

    def render(self) -> str:
        """Canonical string, terms in descending lex order of exponents.

        Deterministic and injective on polynomials; used for output, for
        sorted output order and in golden tests.
        """
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            factors = []
            for i, e in enumerate(_unpack(key, self.nvars)):
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
        return self._span()[0]


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


def _product(side, polys, products) -> LaurentPoly:
    """prod polys[i]^e over the pairs (i, e) of side, kept in products with its prefixes."""
    if side not in products:
        f = polys[side[-1][0]] ** side[-1][1]
        products[side] = _product(side[:-1], polys, products) * f if len(side) > 1 else f
    return products[side]


def _exchange_binomial(column, polys, products) -> LaurentPoly:
    """The exchange binomial over the pairs (i, b_ik) of column k, x_i = polys[i]."""
    plus = _product(tuple((i, b) for i, b in column if b > 0), polys, products)
    return plus + _product(tuple((i, -b) for i, b in column if b < 0), polys, products)


def seed_mutate(s: Seed, k: int) -> Seed:
    """Mutate the seed at vertex k (1-based), reading column k of B."""
    n = len(s.b)
    if not (1 <= k <= n):
        raise IndexError(f"mutation vertex {k} out of range 1..{n}")
    column = [(i, row[k - 1]) for i, row in enumerate(s.b)]
    new_var = _exchange_binomial(column, s.cluster, {(): LaurentPoly.one(n)}).exact_div(s.cluster[k - 1])
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


def _read_off_denominator(old: int, column, dens) -> tuple[int, ...]:
    """d(x_k') = d(P) - d(x_k) off the vectors dens[i] of P's factors (i, b_ik):
    lowest exponents add under products, so with no negative coefficient d(P)
    is the componentwise max of sum_{b>0} b d_i and sum_{b<0} -b d_i."""
    sums = [[0] * len(dens[old]), [0] * len(dens[old])]
    for i, b in column:
        sums[b < 0] = [s + abs(b) * v for s, v in zip(sums[b < 0], dens[i])]
    return tuple(max(p, m) - o for p, m, o in zip(*sums, dens[old]))


def explore_exchange_graph(b, max_depth: int | None = None) -> ExplorationResult:
    """Enumerate clusters reachable from the initial seed of ``b``.

    max_depth may be omitted only when the quiver of ``b`` has Dynkin shape
    (guaranteed finite); otherwise it is required so the walk cannot run
    forever. When the cutoff hides further clusters the result is flagged
    truncated (checked by probing one layer past the cutoff). A Seed is built
    only for a new cluster. Inside, a variable is an id interned by polynomial
    equality, a cluster's key is the bitmask of its ids, and the exchange table
    maps (x_k, {(x_i, b_ik) : b_ik != 0}) to x_k' and back. A miss builds the
    binomial P from products kept for the call with their prefixes and takes
    the variable found under d(x_k'), read off the factors by the max rule, if
    x_k times it is P (a proof in Z[x^+-1]), else divides: once per new variable
    where denominator vectors separate variables (finite type, Fomin-Zelevinsky).
    """
    if max_depth is None:
        cls = classify_diagram(quiver_from_matrix(b))
        if cls.kind != "dynkin":
            raise ValueError(f"exchange graph of {cls.label} shape may be infinite; pass max_depth")
    start = initial_seed(b)
    n = len(start.b)
    polys, dens = list(start.cluster), [p.denominator_vector() for p in start.cluster]
    ids = {p: i for i, p in enumerate(polys)}
    known = dict(zip(dens, polys))
    exchanged, products = {}, {(): LaurentPoly.one(n)}

    def exchanges(layer):
        for s, c, key in layer:
            for k, col in enumerate(zip(*s.b)):
                old = c[k]
                rel = frozenset(filter(itemgetter(1), zip(c, col)))
                new = exchanged.get((old, rel))
                if new is None:
                    column = sorted(rel)
                    cand = known.get(_read_off_denominator(old, column, dens))
                    binom = _exchange_binomial(column, polys, products)
                    q = cand if cand and polys[old] * cand == binom else binom.exact_div(polys[old])
                    new = ids.setdefault(q, len(polys))
                    if new == len(polys):
                        polys.append(q)
                        dens.append(q.denominator_vector())
                        known[dens[new]] = q
                    exchanged[old, rel], exchanged[new, frozenset((i, -bik) for i, bik in rel)] = new, old
                yield s, c, k, new, key ^ (1 << old) ^ (1 << new)

    seeds, depth = {(1 << n) - 1: start}, 0  # by key, in discovery order
    layer = [(start, tuple(range(n)), (1 << n) - 1)]
    while layer and (max_depth is None or depth < max_depth):
        next_layer = []
        for s, c, k, new, key in exchanges(layer):
            if key not in seeds:
                t_ids = c[:k] + (new,) + c[k + 1 :]
                seeds[key] = t = Seed(mutate_matrix(s.b, k + 1), tuple(polys[i] for i in t_ids))
                next_layer.append((t, t_ids, key))
        depth += bool(next_layer)
        layer = next_layer
    variables = set(polys)  # the probe's new variables lie in no recorded cluster
    truncated = any(key not in seeds for *_, key in exchanges(layer))
    return ExplorationResult({frozenset(t.cluster): t for t in seeds.values()}, variables, truncated, depth)


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
