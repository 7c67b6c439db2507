"""Exact dense linear algebra over the rationals.

Matrices are plain lists of lists of ints, with a ``fractions.Fraction``
only where a value is not integral.  Ranks, kernels and solutions all come
from one integer elimination kernel: each row is scaled to Python ints (an
all-int row is copied as it is) and reduced by fraction-free Gauss-Jordan
steps that keep each row primitive by its gcd; an answer read off a pivot
row is a Fraction only where the pivot does not divide.  Shapes are carried
explicitly because zero-row and zero-column matrices are legitimate values
here (representations routinely have zero-dimensional vertex spaces).

All functions return fresh objects; nothing mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Row = list[int | Fraction]
Matrix = list[Row]

__all__ = [
    "frac",
    "mat",
    "zeros",
    "identity",
    "shape_of",
    "mat_mul",
    "transpose",
    "rank",
    "nullspace",
    "solve",
    "solve_matrix",
]


def frac(x) -> int | Fraction:
    """``x`` as an int if it is integral, else as a Fraction."""
    x = x if type(x) is int else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def mat(rows: Iterable[Iterable]) -> Matrix:
    """Copy ``rows`` into an exact matrix."""
    return [[frac(x) for x in row] for row in rows]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def shape_of(m: Matrix, rows: int, cols: int) -> tuple[int, int]:
    """Validate that ``m`` has the given shape and return it."""
    if len(m) != rows:
        raise ValueError(f"expected {rows} rows, got {len(m)}")
    for row in m:
        if len(row) != cols:
            raise ValueError(f"expected {cols} columns, got {len(row)}")
    return rows, cols


def mat_mul(a: Matrix, b: Matrix, cols: int | None = None) -> Matrix:
    """Product a*b. ``cols`` pins the output width when b has no rows."""
    if cols is None:
        cols = len(b[0]) if b else 0
    inner = len(b)
    out = zeros(len(a), cols)
    for ra, oi in zip(a, out):
        for k in range(inner):
            x = ra[k]
            if x:
                rb = b[k]
                for j in range(cols):
                    if rb[j]:
                        oi[j] += x * rb[j]
    return [row if set(map(type, row)) <= {int} else [frac(x) for x in row] for row in out]


def transpose(a: Matrix, cols: int | None = None) -> Matrix:
    if not a:
        return [[] for _ in range(cols or 0)]
    return [list(col) for col in zip(*a)]


def _echelon(a: Matrix, full: bool = True) -> tuple[list[list[int]], list[int]]:
    """Integer echelon form of ``a`` and its pivot columns.

    Rows are scaled to integers, then eliminated fraction-free: under pivot
    p, a row with entry f becomes (p/g)*row - (f/g)*pivot_row, g = gcd(p, f),
    divided by its content; a unit pivot touches only its row's support.
    ``full`` clears pivot columns above the pivots too (a rank needs only
    forward steps), so pivot row r is a multiple of row r of the reduced form.
    """
    m = []
    for row in a:
        if set(map(type, row)) <= {int}:
            m.append(list(row))
        else:
            den = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        # the smallest pivot keeps the entries small
        col = [(abs(row[c]), i) for i, row in enumerate(m[r:], r) if row[c]]
        if not col:
            continue
        best, pr = min(col)
        m[r], m[pr] = m[pr], m[r]
        prow = m[r] = m[r] if m[r][c] > 0 else [-x for x in m[r]]
        support = [j for j, y in enumerate(prow) if y]
        for i in range(0 if full else r + 1, len(m)):
            f = m[i][c]
            if not f or i == r:
                continue
            if best == 1:
                row = m[i]
                for j in support:
                    row[j] -= f * prow[j]
            else:
                g = gcd(best, f)
                row = [best // g * x - f // g * y for x, y in zip(m[i], prow)]
                g = gcd(*row) or 1
                m[i] = [x // g for x in row]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(_echelon(a, full=False)[1])


def _quotient(p: int, q: int) -> int | Fraction:
    return p // q if p % q == 0 else Fraction(p, q)


def nullspace(a: Matrix, cols: int) -> Matrix:
    """Basis of the right kernel of ``a`` (a has ``cols`` columns)."""
    m, pivots = _echelon(a)
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(m, pivots):
            if row[fc]:
                v[pc] = _quotient(-row[fc], row[pc])
        basis.append(v)
    return basis


def solve_matrix(a: Matrix, b: Matrix, cols: int) -> Matrix | None:
    """The solution X of a*X = b (``cols`` columns in a) that is zero on every
    free variable, or None if the system is inconsistent."""
    m, pivots = _echelon([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots and pivots[-1] >= cols:
        return None
    x = zeros(cols, len(b[0]) if b else 0)
    for row, pc in zip(m, pivots):
        x[pc] = [_quotient(y, row[pc]) for y in row[cols:]]
    return x


def solve(a: Matrix, b: Sequence, cols: int) -> Row | None:
    """One solution of a*x = b, or None if inconsistent."""
    if not a:
        return [0] * cols if not any(b) else None
    x = solve_matrix(a, [[y] for y in b], cols)
    return None if x is None else [row[0] for row in x]
