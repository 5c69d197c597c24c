"""Exact linear algebra over any field-like scalar.

Scalars must support +, -, *, /, and ``is_zero()``; matrices are lists of
lists, in and out.  Every routine on a matrix runs the one Gaussian
elimination of ``_eliminate`` with exact division (``solve`` once for all
its right-hand sides); ``extend`` grows an echelon form one vector at a
time.  Rows stay dense lists, but arithmetic is done on nonzero entries
only: a pivot row is divided where it is nonzero, and a row is updated
only in the columns where the pivot row is nonzero (``a - f*0`` is ``a``
itself).  The certificate matrices are mostly zeros (the 140 x 289 Morita
system of the spherical check on rational-differential n=2, S2 is about
2 % nonzero), so this skips most of the arithmetic.
"""

from __future__ import annotations


def _eliminate(rows, reduce, ncols=None):
    """Gaussian elimination of ``rows`` in place, one column at a time.

    The pivot of a column is the first row, from the current one down,
    with a nonzero entry there; it is swapped up to the current row.  With
    ``reduce`` the pivot row is divided by its pivot and the column is
    cleared in every other row (reduced echelon form); without, the pivot
    row is kept and the column is cleared below it only.  Yields
    ``(column, pivot, swapped)`` for each of the first ``ncols`` columns
    (default all; later ones only follow the row operations), ``pivot``
    being the pivot entry before division, or None where the column has
    none; stops once every row holds a pivot.
    """
    r = 0
    for c in range(len(rows[0]) if ncols is None else ncols):
        pivot = next((i for i in range(r, len(rows))
                      if not rows[i][c].is_zero()), None)
        if pivot is None:
            yield c, None, False
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        support = [j for j, x in enumerate(prow) if not x.is_zero()]
        if reduce:
            for j in support:
                prow[j] = prow[j] / pv
        for i in range(0 if reduce else r + 1, len(rows)):
            row = rows[i]
            if i == r or row[c].is_zero():
                continue
            f = row[c] if reduce else row[c] / pv
            for j in support:
                row[j] = row[j] - f * prow[j]
        yield c, pv, pivot != r
        r += 1
        if r == len(rows):
            return


def row_reduce(rows):
    """Reduced row echelon form.  Returns (rref, pivot column list)."""
    if not rows:
        return [], []
    rows = [list(r) for r in rows]
    pivots = [c for c, pv, _ in _eliminate(rows, True) if pv is not None]
    return rows, pivots


def rank(rows):
    _, pivots = row_reduce(rows)
    return len(pivots)


def det(matrix):
    """Determinant by elimination; requires a square matrix, returns a scalar."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    sign = 1
    result = None
    for _, pv, swapped in _eliminate([list(r) for r in matrix], False):
        if pv is None:
            return matrix[0][0] - matrix[0][0]
        if swapped:
            sign = -sign
        result = pv if result is None else result * pv
    if sign < 0:
        result = -result
    return result


def solve(matrix, columns):
    """One solution x of A x = b for each right-hand side b in ``columns``.

    ``matrix`` is m x n (list of rows), each b a length-m list.  One
    elimination pivots in A's columns only; b is inconsistent, and its
    entry None, when it keeps a nonzero entry below the rank.  Free
    variables are set to zero, so the answers are deterministic.
    """
    m = len(matrix)
    if m == 0:
        return [[] for _ in columns]
    n = len(matrix[0])
    aug = [list(matrix[i]) + [b[i] for b in columns] for i in range(m)]
    pivots = [c for c, pv, _ in _eliminate(aug, True, n) if pv is not None]
    solutions = []
    for j, b in enumerate(columns, n):
        x = None
        if all(row[j].is_zero() for row in aug[len(pivots):]):
            x = [b[0] - b[0]] * n
            for r, c in enumerate(pivots):
                x[c] = aug[r][j]
        solutions.append(x)
    return solutions


def reduce_vector(rows, pivots, vec):
    """Subtract the echelon combination; returns (coords, residual).

    Row k has a 1 at ``pivots[k]`` and zeros at the pivots before it."""
    v = list(vec)
    coords = []
    for row, p in zip(rows, pivots):
        c = v[p]
        coords.append(c)
        if not c.is_zero():
            v = [a if b.is_zero() else a - c * b for a, b in zip(v, row)]
    return coords, v


def extend(rows, pivots, vec):
    """Append ``vec``, reduced and scaled to a pivot 1, to the echelon form
    (``rows``, ``pivots``) if it lies outside their span; says whether it did."""
    _, v = reduce_vector(rows, pivots, vec)
    p = next((k for k, c in enumerate(v) if not c.is_zero()), None)
    if p is not None:
        rows.append([c if c.is_zero() else c / v[p] for c in v])
        pivots.append(p)
    return p is not None


def nullspace(matrix):
    """Basis of the right kernel of an m x n matrix, deterministic order."""
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    rref, pivots = row_reduce(matrix)
    one = next((x / x for row in matrix for x in row if not x.is_zero()), None)
    if one is None:
        # zero matrix: kernel is everything, but a scalar "one" is unavailable;
        # callers pass at least one nonzero entry when they need the basis
        raise ValueError("nullspace of an identically zero matrix is ambiguous here")
    zero = one - one
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero for _ in range(n)]
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def identity_like(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
