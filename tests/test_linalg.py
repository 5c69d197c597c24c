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
from hopfgalois.numberfield import NumberField
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


def to_sparse(rows):
    return [{j: PF.from_fraction(x) for j, x in enumerate(row) if x}
            for row in rows]


def solve_fractions(rows, columns):
    """``linalg.solve`` on a dense system of Fractions: each answer as a
    dense list of Fractions, or None."""
    n = len(rows[0])
    xs = linalg.solve(to_sparse(rows), n, [
        {i: PF.from_fraction(b) for i, b in enumerate(col) if b}
        for col in columns])
    assert len(xs) == len(columns)
    return [None if x is None else [value(x[j]) if j in x else 0
                                    for j in range(n)] for x in xs]


def sympy_solutions(rows, columns):
    """sympy's canonical solution of each side: pivots in the leftmost
    columns, every free variable zero; None where the side is inconsistent."""
    a = to_sympy(rows)
    out = []
    for col in columns:
        try:
            sol, free = a.gauss_jordan_solve(to_sympy([[v] for v in col]))
        except ValueError:
            out.append(None)
            continue
        out.append(sympy_values(sol.subs({t: 0 for t in free}).T)[0])
    return out


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
# rank 1 of 2 rows: the middle side is inconsistent, the outer two are not
@example(([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
          [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)],
           [Fraction(2), Fraction(0)]]))
def test_solve_matches_sympy(system):
    rows, columns = system
    assert solve_fractions(rows, columns) == sympy_solutions(rows, columns)


# Systems on which the elimination mod P alone would mislead: a multiple of
# P vanishes there, and over Q it does not.
P = Fraction(linalg.P)
BAD_PRIME_SYSTEMS = [
    # inconsistent mod P, but x = 1/P over Q
    ([[P]], [[Fraction(1)]]),
    # the pivot mod P is in column 1, over Q in column 0: x = (1/P, 0)
    ([[P, Fraction(1)]], [[Fraction(1)]]),
    # rank 2, rank 1 mod P: the first side needs the second row, the
    # second side is solved by the first row alone
    ([[Fraction(1), Fraction(1)], [Fraction(1), 1 + P]],
     [[Fraction(2), 2 + P], [Fraction(1), Fraction(1)]]),
    # consistent mod P, inconsistent over Q
    ([[Fraction(1)], [Fraction(1)]], [[Fraction(0), P]]),
    # b vanishes mod P, so the solution mod P is 0; over Q it is not
    ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], [[P, Fraction(0)]]),
    # the denominator P has no residue at all
    ([[1 / P, Fraction(1)]], [[Fraction(1)]]),
]


@pytest.mark.parametrize("rows, columns", BAD_PRIME_SYSTEMS)
def test_solve_is_exact_where_the_prime_misleads(rows, columns):
    assert solve_fractions(rows, columns) == sympy_solutions(rows, columns)


def test_residue_is_defined_over_q_only():
    assert PF.from_fraction(Fraction(1, 2)).residue(7) == 4
    assert PF.from_fraction(Fraction(-3)).residue(7) == 4
    assert PF.zero.residue(7) == 0
    assert PF.from_fraction(Fraction(7, 2)).residue(7) == 0
    assert PF.from_fraction(Fraction(2, 7)).residue(7) is None
    z3 = ParamField((), NumberField.cyclotomic(3))
    assert z3.one.residue(7) is None
    assert ParamField(("q",)).one.residue(7) is None


def test_solve_over_q_zeta3():
    """No entry has a residue: the exact elimination alone decides."""
    F = ParamField((), NumberField.cyclotomic(3))
    one, z = F.one, F.from_nf((0, 1))
    rows = [{0: z, 2: one}, {1: one, 2: z}]
    x, y = linalg.solve(rows, 3, [{0: one, 1: z}, {0: z * z, 1: one}])
    # z^3 = 1: x = (z^2, z, 0); the second side is solved by (z, 1, 0)
    assert list(x) == [0, 1] and x[0] == z * z and x[1] == z
    assert list(y) == [0, 1] and y[0] == z and y[1] == one
    assert linalg.solve(rows + [{0: one, 1: one, 2: z + z * z}], 3,
                        [{0: one, 1: z}])[0] is None


def test_solve_with_one_parameter():
    F = ParamField(("q",))
    one, q = F.one, F.param("q")
    rows = [{0: q, 1: one}, {0: one, 2: q}]
    # the pivots are columns 0 and 1, so the free column 2 stays 0
    (x,) = linalg.solve(rows, 3, [{0: q * q, 1: q}])
    assert x == {0: q}


def test_solve_with_no_rows_gives_the_zero_vector():
    assert linalg.solve([], 3, [{}, {}]) == [{}, {}]
    assert linalg.solve([{}, {}], 2, [{}, {1: PF.one}]) == [{}, None]


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
    sparse = to_sparse([[Fraction(x) for x in row] for row in rows])
    columns = [{i: PF.from_fraction(Fraction(b)) for i, b in enumerate(rhs) if b}
               for rhs in ((1, 0, 2, 1), (3, 6, 0, 4))]
    square = to_params([[Fraction(x) for x in row]
                        for row in ([2, 0, 0, 1], [0, 0, 3, 0],
                                    [1, 0, 0, 0], [0, 5, 0, 1])])
    monkeypatch.setattr(ParamElem, "__mul__", guarded(mul))
    monkeypatch.setattr(ParamElem, "__truediv__", guarded(div))
    x, y = linalg.solve(sparse, 5, columns)
    assert {j: value(v) for j, v in x.items()} == \
        {0: 2, 1: Fraction(1, 4), 4: Fraction(1, 2)}
    assert {j: value(v) for j, v in y.items()} == {1: 1, 3: 2, 4: 1}
    assert value(linalg.det(square)) == -15
    assert len(linalg.nullspace(matrix)) == 1
