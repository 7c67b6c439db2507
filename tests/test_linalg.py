from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustercat import linalg


def solve_matrix(a, b, cols):
    """The solution X of a*X = b (``cols`` columns in a) that is zero on every
    free variable, or None if the system is inconsistent: the kernel's pivot
    rows of [a | b], back-substituted.  No engine code solves a system; the
    tests use this as an oracle."""
    rows = (row if isinstance(row, dict) else dict(enumerate(row)) for row in a)
    pivots = linalg._echelon([row | dict(enumerate(rhs, cols)) for row, rhs in zip(rows, b)])
    if any(c >= cols for c in pivots):
        return None
    x = linalg.zeros(cols, len(b[0]) if b else 0)
    for pc, row in linalg._reduced(pivots).items():
        x[pc] = [linalg._quotient(row.get(j, 0), row[pc]) for j in range(cols, cols + len(x[pc]))]
    return x


def solve(a, b, cols):
    """One solution of a*x = b, or None if inconsistent."""
    if not a:
        return [0] * cols if not any(b) else None
    x = solve_matrix(a, [[y] for y in b], cols)
    return None if x is None else [row[0] for row in x]


def reference_rref(a):
    """Gauss-Jordan elimination on Fractions: the reduced row echelon form
    and pivot columns, as the kernel computed them before it went integer."""
    m = [[Fraction(x) for x in row] for row in a]
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


def kernel_form(rows):
    """The reduced row echelon form and pivots as the public kernel reads
    them: a column is a pivot iff it raises the rank of the columns before
    it, and the nullspace vector of free column f holds -red[i][f] at the
    i-th pivot."""
    cols = len(rows[0]) if rows else 0
    pivots = [
        c for c in range(cols) if linalg.rank([r[:c + 1] for r in rows]) > linalg.rank([r[:c] for r in rows])
    ]
    red = linalg.zeros(len(rows), cols)
    for i, pc in enumerate(pivots):
        red[i][pc] = Fraction(1)
    free = [c for c in range(cols) if c not in pivots]
    for fc, vec in zip(free, linalg.nullspace(rows, cols), strict=True):
        for i, pc in enumerate(pivots):
            red[i][fc] = -vec[pc]
    return red, pivots


def test_rref_pivots():
    m = linalg.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = kernel_form(m)
    assert pivots == [0, 1] and linalg.rank(m) == 2
    assert red[0] == [Fraction(1), Fraction(0), Fraction(-1)]
    assert red[1] == [Fraction(0), Fraction(1), Fraction(2)]
    # the pivot columns times the nonzero reduced rows give back the matrix
    assert solve_matrix([[row[0], row[1]] for row in m], m, 2) == red[:2]


def test_nullspace_of_empty_system_is_identity():
    basis = linalg.nullspace([], 3)
    assert basis == [list(row) for row in linalg.identity(3)]


def test_solve_inconsistent_returns_none():
    assert solve(linalg.mat([[1, 1], [1, 1]]), [1, 2], 2) is None


def test_solve_finds_solution():
    a = linalg.mat([[2, 0], [0, 3]])
    x = solve(a, [4, 9], 2)
    assert x == [Fraction(2), Fraction(3)]


def test_inverse_roundtrip():
    # the inverse is the solution of a*X = I
    a = linalg.mat([[1, 2], [3, 5]])
    inv = solve_matrix(a, linalg.identity(2), 2)
    assert inv == linalg.mat([[-5, 2], [3, -1]])
    assert linalg.mat_mul(a, inv) == linalg.identity(2)


def test_solve_matrix_gives_a_right_inverse_of_a_wide_matrix():
    a = linalg.mat([[0, 2, 1], [0, 0, 3]])
    right = solve_matrix(a, linalg.identity(2), 3)
    assert linalg.mat_mul(a, right) == linalg.identity(2)
    # zero on the free variable, as solve leaves it
    assert right[0] == [0, 0]
    assert [solve(a, e, 3) for e in ([1, 0], [0, 1])] == [list(c) for c in zip(*right)]
    # dependent rows make some right-hand side inconsistent
    assert solve_matrix([[1, 2], [2, 4]], linalg.identity(2), 2) is None


def _shaped(entries, min_rows=1, min_cols=1, max_rows=4, max_cols=4):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


matrices = _shaped(st.integers(-4, 4))
# sparse small entries like the hom systems, zero rows and columns included,
# and rationals with assorted denominators
_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_ENTRIES = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-9, 9) | _RATIONALS
oracle_matrices = _shaped(_ENTRIES, min_rows=0, min_cols=0, max_rows=6, max_cols=7)


@settings(max_examples=250, deadline=None)
@given(oracle_matrices)
def test_rref_equals_fraction_reference(rows):
    red, pivots = kernel_form(rows)
    ref, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    assert red == ref
    assert kernel_form(linalg.mat(rows)) == (ref, ref_pivots)
    assert linalg.rank(rows) == len(ref_pivots)
    # the pivot columns times the nonzero reduced rows give back the matrix
    basis = [[row[c] for c in pivots] for row in rows]
    assert solve_matrix(basis, rows, len(pivots)) == ref[:len(pivots)]


def as_dicts(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@settings(max_examples=250, deadline=None)
@given(oracle_matrices)
def test_forward_rank_equals_full_elimination(rows):
    # rank eliminates forward only, on dense rows or sparse ones; the
    # reference reduces fully
    full = len(reference_rref(rows)[1])
    assert linalg.rank(rows) == linalg.rank(linalg.mat(rows)) == linalg.rank(as_dicts(rows)) == full


# up to 20 x 30 and mostly zeros, like the hom systems, empty shapes included,
# with a right-hand side of the same sparsity: one entry in six is drawn from
# -9..9, the rest are 0
_SPARSE_ENTRIES = st.integers(0, 5).flatmap(lambda k: st.integers(-9, 9) if k == 0 else st.just(0))
sparse_systems = _shaped(_SPARSE_ENTRIES, min_rows=0, min_cols=0, max_rows=20, max_cols=30).flatmap(
    lambda rows: st.tuples(st.just(rows), st.lists(_SPARSE_ENTRIES, min_size=len(rows), max_size=len(rows)))
)


@settings(max_examples=150, deadline=None)
@given(sparse_systems)
def test_sparse_rows_read_the_reference_form(system):
    rows, b = system
    cols = len(rows[0]) if rows else 0
    ref, pivots = reference_rref(rows)
    kernel = [
        [-ref[pivots.index(c)][fc] if c in pivots else int(c == fc) for c in range(cols)]
        for fc in range(cols) if fc not in pivots
    ]
    # the reference solution is zero on every free variable
    aug, aug_pivots = reference_rref([row + [y] for row, y in zip(rows, b)])
    x = None if cols in aug_pivots else [
        aug[aug_pivots.index(c)][cols] if c in aug_pivots else 0 for c in range(cols)
    ]
    for a in (rows, as_dicts(rows)):
        assert linalg.rank(a) == len(pivots)
        assert linalg.nullspace(a, cols) == kernel
        assert solve(a, b, cols) == x


@settings(max_examples=120, deadline=None)
@given(oracle_matrices.filter(lambda rows: rows and rows[0]))
def test_nullspace_and_solve_read_the_reference_form(rows):
    cols = len(rows[0])
    ref, pivots = reference_rref(rows)
    expected = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -ref[r][fc]
        expected.append(v)
    assert linalg.nullspace(rows, cols) == expected
    # the last column as right-hand side of the rest
    a, b = [row[:-1] for row in rows], [row[-1] for row in rows]
    x = solve(a, b, cols - 1)
    if cols - 1 in pivots:
        assert x is None
    else:
        assert x == [
            ref[pivots.index(c)][cols - 1] if c in pivots else 0 for c in range(cols - 1)
        ]


# int input, and Fraction input with integral and non-integral values
_AS_INTS = _shaped(st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-9, 9), max_rows=6, max_cols=7)
_AS_FRACTIONS = _shaped(_ENTRIES, max_rows=6, max_cols=7).map(
    lambda rows: [[Fraction(x) for x in row] for row in rows]
)


@settings(max_examples=200, deadline=None)
@given(_AS_INTS | _AS_FRACTIONS)
@example([[Fraction(1, 2)] * 4])  # a row times itself is 1
def test_results_are_ints_exactly_where_integral(rows):
    cols = len(rows[0])
    a, b = [row[:-1] for row in rows], [row[-1] for row in rows]
    results = [
        linalg.mat(rows),
        linalg.nullspace(rows, cols),
        solve_matrix(a, [[y] for y in b], cols - 1) or [],
        solve_matrix(rows, linalg.identity(len(rows)), cols) or [],
        [solve(a, b, cols - 1) or []],
        linalg.mat_mul(rows, linalg.transpose(rows)),
        linalg.mat_mul(linalg.transpose(rows), rows),
    ]
    for m in results:
        for row in m:
            for x in row:
                assert type(x) is (int if x.denominator == 1 else Fraction), (rows, x)


def test_empty_shapes():
    assert kernel_form([]) == ([], [])
    assert kernel_form([[], []]) == ([[], []], [])
    assert kernel_form([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert linalg.nullspace([[], []], 0) == []
    assert solve_matrix([[0, 0], [0, 0]], [[0], [0]], 2) == [[0], [0]]
    assert linalg.rank([]) == 0
    assert linalg.nullspace([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert solve_matrix([], linalg.identity(0), 0) == []
    assert solve_matrix([], [], 2) == [[], []]
    assert list(map(type, solve([], [0, 0], 2))) == [int, int]


square = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5) | _RATIONALS, min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=80, deadline=None)
@given(square.filter(lambda a: len(reference_rref(a)[1]) == len(a)))
def test_inverse_times_matrix_is_identity(rows):
    a = linalg.mat(rows)
    inv = solve_matrix(a, linalg.identity(len(a)), len(a))
    n = len(a)
    assert linalg.mat_mul(inv, a) == linalg.identity(n)
    assert linalg.mat_mul(a, inv) == linalg.identity(n)


@settings(max_examples=60, deadline=None)
@given(square, st.integers(-3, 3))
def test_inverse_of_singular_matrix_is_none(rows, scale):
    # the last row repeats a multiple of the first, or is zero for n = 1
    rows = rows[:-1] + [[scale * x for x in rows[0]] if len(rows) > 1 else [0]]
    assert solve_matrix(rows, linalg.identity(len(rows)), len(rows)) is None


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_plus_nullity(rows):
    m = linalg.mat(rows)
    cols = len(rows[0])
    assert linalg.rank(m) + len(linalg.nullspace(m, cols)) == cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_vectors_annihilate(rows):
    m = linalg.mat(rows)
    cols = len(rows[0])
    for vec in linalg.nullspace(m, cols):
        assert linalg.mat_mul(m, [[x] for x in vec]) == linalg.zeros(len(m), 1)
