"""Exact elimination in ``linalg``, checked against sympy on sparse matrices.

sympy shares no code with ``linalg``: matrices are drawn as Fractions,
run through ``linalg`` as ``ParamField(())`` elements and through
``sympy.Matrix`` as Rationals, and the answers are compared exactly.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from hopfgalois import linalg
from hopfgalois.params import ParamElem, ParamField
from oracles import constant_value

PF = ParamField(())

nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


@st.composite
def sparse_matrices(draw, square=False):
    """A matrix of Fractions with about 10-30 % nonzero entries; some
    draws also blank out a whole row and a whole column."""
    m = draw(st.integers(1, 7))
    n = m if square else draw(st.integers(1, 10))
    cells = [(i, j) for i in range(m) for j in range(n)]
    share = draw(st.sampled_from((10, 20, 30)))
    count = draw(st.integers(max(1, len(cells) * share // 200),
                             max(1, len(cells) * share // 100)))
    support = draw(st.lists(st.sampled_from(cells), min_size=count,
                            max_size=count, unique=True))
    rows = [[Fraction(0)] * n for _ in range(m)]
    for i, j in support:
        rows[i][j] = draw(nonzero)
    if draw(st.booleans()):
        blank_row = draw(st.integers(0, m - 1))
        blank_col = draw(st.integers(0, n - 1))
        rows[blank_row] = [Fraction(0)] * n
        for row in rows:
            row[blank_col] = Fraction(0)
    return rows


@st.composite
def sparse_systems(draw):
    """A sparse matrix and one to three right-hand sides.  A side is either
    drawn entry by entry (a blanked row with a nonzero entry there makes it
    inconsistent) or is A times a drawn vector (always consistent), so one
    system can mix consistent and inconsistent sides."""
    rows = draw(sparse_matrices())
    entry = st.one_of(st.just(Fraction(0)), nonzero)
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = [draw(entry) for _ in rows[0]]
            columns.append([sum((a * b for a, b in zip(row, x)), Fraction(0))
                            for row in rows])
        else:
            columns.append([draw(entry) for _ in rows])
    return rows, columns


def to_params(rows):
    return [[PF.from_fraction(x) for x in row] for row in rows]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def value(x):
    (q,) = constant_value(x)
    return q


def values(rows):
    return [[value(x) for x in row] for row in rows]


def sympy_values(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)]
            for i in range(matrix.rows)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_row_reduce_rank_and_nullspace_match_sympy(rows):
    reduced, pivots = linalg.row_reduce(to_params(rows))
    expected, expected_pivots = to_sympy(rows).rref()
    assert pivots == list(expected_pivots)
    assert values(reduced) == sympy_values(expected)
    assert linalg.rank(to_params(rows)) == len(expected_pivots)
    if not any(any(row) for row in rows):
        with pytest.raises(ValueError):
            linalg.nullspace(to_params(rows))
        return
    basis = linalg.nullspace(to_params(rows))
    assert [[value(x) for x in vec] for vec in basis] == \
        [sympy_values(v.T)[0] for v in to_sympy(rows).nullspace()]


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
# rank 1 of 2 rows: the middle side is inconsistent, the outer two are not
@example(([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
          [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)],
           [Fraction(2), Fraction(0)]]))
def test_solve_matches_sympy(system):
    rows, columns = system
    xs = linalg.solve(to_params(rows), [[PF.from_fraction(b) for b in col]
                                        for col in columns])
    assert len(xs) == len(columns)
    a = to_sympy(rows)
    for x, col in zip(xs, columns):
        try:
            sol, free = a.gauss_jordan_solve(to_sympy([[v] for v in col]))
        except ValueError:
            assert x is None
            continue
        # the particular solution with every free variable zero
        sol = sol.subs({t: 0 for t in free})
        assert x is not None
        assert [value(v) for v in x] == sympy_values(sol.T)[0]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_extend_keeps_the_pivot_columns(rows):
    """Fed the columns one at a time, ``extend`` accepts exactly the pivot
    columns of the reduced echelon form."""
    echelon, pivots, kept = [], [], []
    for j, col in enumerate(zip(*to_params(rows))):
        if linalg.extend(echelon, pivots, list(col)):
            kept.append(j)
    assert kept == list(to_sympy(rows).rref()[1])
    assert len(echelon) == len(pivots) == len(kept)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(square=True))
def test_det_matches_sympy(rows):
    d = to_sympy(rows).det()
    assert value(linalg.det(to_params(rows))) == Fraction(int(d.p), int(d.q))


def test_elimination_does_no_arithmetic_on_zeros(monkeypatch):
    """Dividing or multiplying by a zero entry is wasted work: the guard
    makes every such product an error."""
    mul, div = ParamElem.__mul__, ParamElem.__truediv__

    def guarded(op):
        def checked(self, other):
            if self.is_zero() or (isinstance(other, ParamElem) and other.is_zero()):
                raise AssertionError("arithmetic on a zero entry")
            return op(self, other)
        return checked

    rows = [[0, 2, 0, 0, 1],
            [0, 0, 0, 3, 0],
            [1, 0, 0, 0, 0],
            [0, 4, 0, 0, 0]]
    matrix = to_params([[Fraction(x) for x in row] for row in rows])
    columns = [[PF.from_fraction(Fraction(b)) for b in rhs]
               for rhs in ((1, 0, 2, 1), (3, 6, 0, 4))]
    square = to_params([[Fraction(x) for x in row]
                        for row in ([2, 0, 0, 1], [0, 0, 3, 0],
                                    [1, 0, 0, 0], [0, 5, 0, 1])])
    monkeypatch.setattr(ParamElem, "__mul__", guarded(mul))
    monkeypatch.setattr(ParamElem, "__truediv__", guarded(div))
    x, y = linalg.solve(matrix, columns)
    assert [value(v) for v in x] == [2, Fraction(1, 4), 0, 0, Fraction(1, 2)]
    assert [value(v) for v in y] == [0, 1, 0, 2, 1]
    assert value(linalg.det(square)) == -15
    assert len(linalg.nullspace(matrix)) == 1
