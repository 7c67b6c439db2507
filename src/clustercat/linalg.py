"""Exact dense linear algebra over the rationals.

Everything in this package that touches ranks, kernels or inverses must be
exact, so matrices are plain lists of lists of ``fractions.Fraction`` and all
eliminations are fraction-free in spirit (Gaussian elimination over Q).
Shapes are carried explicitly because zero-row and zero-column matrices are
legitimate values here (representations routinely have zero-dimensional
vertex spaces).

All functions return fresh objects; nothing mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Row = list[Fraction]
Matrix = list[Row]

__all__ = [
    "frac",
    "mat",
    "zeros",
    "identity",
    "shape_of",
    "mat_neg",
    "mat_mul",
    "mat_vec",
    "transpose",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "inverse",
    "is_integral",
    "to_int_matrix",
]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows: Iterable[Iterable]) -> Matrix:
    """Copy ``rows`` into a Fraction matrix."""
    return [[frac(x) for x in row] for row in rows]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def shape_of(m: Matrix, rows: int, cols: int) -> tuple[int, int]:
    """Validate that ``m`` has the given shape and return it."""
    if len(m) != rows:
        raise ValueError(f"expected {rows} rows, got {len(m)}")
    for row in m:
        if len(row) != cols:
            raise ValueError(f"expected {cols} columns, got {len(row)}")
    return rows, cols


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


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
    return out


def mat_vec(a: Matrix, v: Sequence) -> list[Fraction]:
    return [sum((x * frac(y) for x, y in zip(row, v)), Fraction(0)) for row in a]


def transpose(a: Matrix, cols: int | None = None) -> Matrix:
    if not a:
        return [[] for _ in range(cols or 0)]
    return [list(col) for col in zip(*a)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix, cols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of ``a`` (a has ``cols`` columns)."""
    if cols == 0:
        return []
    if not a:
        return [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Sequence, cols: int) -> list[Fraction] | None:
    """One solution of a*x = b, or None if inconsistent."""
    bb = [frac(x) for x in b]
    if not a:
        return [Fraction(0)] * cols if all(x == 0 for x in bb) else None
    aug = [row[:] + [bb[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def is_integral(a: Matrix) -> bool:
    return all(x.denominator == 1 for row in a for x in row)


def to_int_matrix(a: Matrix) -> list[list[int]]:
    if not is_integral(a):
        raise ValueError("matrix has non-integer entries")
    return [[int(x) for x in row] for row in a]
