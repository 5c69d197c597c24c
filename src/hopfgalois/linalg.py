"""Exact dense linear algebra over any field-like scalar.

Scalars must support +, -, *, /, and ``is_zero()``; matrices are lists of
lists.  Everything is straightforward Gaussian elimination with exact
division, which is all the desk-scale certificates need.
"""

from __future__ import annotations


def row_reduce(rows):
    """Reduced row echelon form.  Returns (rref, pivot column list)."""
    if not rows:
        return [], []
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows):
    _, pivots = row_reduce(rows)
    return len(pivots)


def det(matrix):
    """Determinant by elimination; requires a square matrix, returns a scalar."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    m = [list(r) for r in matrix]
    sign = 1
    result = None
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            zero = matrix[0][0] - matrix[0][0]
            return zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        result = pv if result is None else result * pv
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    if sign < 0:
        result = -result
    return result


def solve(matrix, rhs):
    """One solution x of A x = b, or None if inconsistent.

    ``matrix`` is m x n (list of rows), ``rhs`` a length-m list; free
    variables are set to zero, so the answer is deterministic.
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    aug = [list(matrix[i]) + [rhs[i]] for i in range(m)]
    rref, pivots = row_reduce(aug)
    if n in pivots:
        return None
    zero = rhs[0] - rhs[0]
    x = [zero for _ in range(n)]
    for r, c in enumerate(pivots):
        x[c] = rref[r][n]
    return x


def nullspace(matrix):
    """Basis of the right kernel of an m x n matrix, deterministic order."""
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    rref, pivots = row_reduce(matrix)
    one = None
    for row in matrix:
        for x in row:
            one = (x / x) if not x.is_zero() else one
            if one is not None:
                break
        if one is not None:
            break
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
