"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ints, with a ``fractions.Fraction``
only where a value is not integral.  Ranks and kernels both come from one
forward elimination over sparse integer rows: each row, dense or a
``{column: value}`` dict, is scaled to Python ints once and cleared at its
leading column by the pivot row stored there, fraction-free and divided by
its content.  ``rank`` counts the pivot rows; ``nullspace`` back-substitutes
on them, and an entry read off a pivot row is a Fraction only where the pivot
does not divide.  Shapes are carried explicitly because zero-row and
zero-column matrices are legitimate values here (representations routinely
have zero-dimensional vertex spaces).

All functions return fresh objects; nothing mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Row = list[int | Fraction]
Matrix = list[Row]
SparseRow = dict[int, int | Fraction]

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
    return [[int(i == j) for j in range(n)] for i in range(n)]


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


def _clear(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """``row`` with its entry f at c cleared by the pivot row with entry p > 0
    there: (p/g)*row - (f/g)*prow, g = gcd(p, f), divided by its content,
    which is row - (f/p)*prow in place when p divides f."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    if a > 1:
        row = {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        if x := row.get(j, 0) - b * y:
            row[j] = x
        else:
            del row[j]
    if a > 1 and (g := gcd(*row.values())) > 1:
        row = {j: x // g for j, x in row.items()}
    return row


def _echelon(a: Iterable[Row | SparseRow]) -> dict[int, dict[int, int]]:
    """The pivot rows of ``a`` by pivot column, each positive at its pivot:
    each row, scaled to integers once, is cleared at its leading column by the
    pivot row stored there until it is zero or becomes that column's pivot row."""
    pivots: dict[int, dict[int, int]] = {}
    for row in a:
        row = {j: x for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        if not set(map(type, row.values())) <= {int}:
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row if row[c] > 0 else {j: -x for j, x in row.items()}
                break
            row = _clear(row, pivots[c], c)
    return pivots


def _reduced(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Back-substitute, last pivot first: each pivot row becomes a multiple of the reduced form's."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            row = _clear(row, pivots[j], j)
        pivots[c] = row
    return pivots


def rank(a: Matrix | list[SparseRow]) -> int:
    return len(_echelon(a))


def _quotient(p: int, q: int) -> int | Fraction:
    return p // q if p % q == 0 else Fraction(p, q)


def nullspace(a: Matrix | list[SparseRow], cols: int) -> Matrix:
    """Basis of the right kernel of ``a`` (a has ``cols`` columns)."""
    pivots = _reduced(_echelon(a))
    basis = {fc: [int(j == fc) for j in range(cols)] for fc in range(cols) if fc not in pivots}
    for pc, row in pivots.items():
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = _quotient(-x, row[pc])
    return list(basis.values())
