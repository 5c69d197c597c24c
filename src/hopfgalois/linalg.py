"""Exact linear algebra over any field-like scalar.

Scalars must support +, -, *, /, and ``is_zero()``.  Every routine on a
matrix runs the one Gaussian elimination of ``_eliminate`` on sparse rows:
a row is a dict {column: entry} that stores no zero, so a pivot row is
divided only where it is nonzero and another row is updated only in the
pivot row's columns.  ``solve`` takes and gives such sparse data;
``row_reduce``, ``rank``, ``det`` and ``nullspace`` take lists of lists
and convert at the boundary; ``extend`` grows a dense echelon form one
vector at a time.

``solve`` restricts its exact elimination by a rank profile modulo the
prime P = 2^61 - 1.  When every entry has a residue mod P (an optional
``residue(p)`` method: ``ParamElem`` has one over Q), the same elimination
runs on the residues and gives a solution mod P of each right-hand side.
The exact elimination then runs on the pivot rows of the leading columns
that those solutions use, and its answer stands only if it satisfies every
row exactly.  That answer is the full elimination's: a pivot column of
some of the rows, cut to leading columns, is a pivot column of the whole
system, and only one solution is supported on the whole system's pivot
columns.  A bad prime is therefore caught, never trusted: an entry without
a residue, a right-hand side that looks inconsistent mod P, or a failed
replay falls back to eliminating every row.  On the Morita system of the spherical check on
rational-differential n=2, S2 (140 rows, 289 columns, 824 nonzero entries,
rank 126), the exact elimination runs on 43 rows and the first 54 columns.
"""

from __future__ import annotations

P = 2 ** 61 - 1  # a Mersenne prime: residues fit a machine word


def _eliminate(rows, reduce, ncols, p=None):
    """Gaussian elimination of the sparse ``rows`` in place, one column at a time.

    Entries are exact scalars or, with a prime ``p``, nonzero ints mod p.
    The pivot of a column is the first row, from the current one down, with
    an entry there; it is swapped up to the current row.  With ``reduce``
    the pivot row is divided by its pivot and the column is cleared in every
    other row (reduced echelon form); without, the pivot row is kept and the
    column is cleared below it only.  Yields ``(column, pivot, swapped)``
    for each of the first ``ncols`` columns (later ones only follow the row
    operations), ``pivot`` being the pivot entry before division, or None
    where the column has none; stops once every row holds a pivot.
    """
    r = 0
    for c in range(ncols):
        if r == len(rows):
            return
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            yield c, None, False
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        inv = None if p is None else pow(pv, -1, p)
        if reduce:
            for j, x in prow.items():
                prow[j] = x / pv if p is None else x * inv % p
        for i in range(0 if reduce else r + 1, len(rows)):
            row = rows[i]
            if i == r or c not in row:
                continue
            f = row[c]
            if not reduce:
                f = f / pv if p is None else f * inv % p
            for j, x in prow.items():
                y = row.get(j)
                if p is None:
                    y = -(f * x) if y is None else y - f * x
                    zero = y.is_zero()
                else:
                    y = ((y or 0) - f * x) % p
                    zero = not y
                if zero:
                    row.pop(j, None)
                else:
                    row[j] = y
        yield c, pv, pivot != r
        r += 1


def _sparse(matrix):
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in matrix]


def row_reduce(rows):
    """Reduced row echelon form.  Returns (rref, pivot column list)."""
    if not rows:
        return [], []
    n = len(rows[0])
    sparse = _sparse(rows)
    pivots = [c for c, pv, _ in _eliminate(sparse, True, n) if pv is not None]
    zero = rows[0][0] - rows[0][0] if n else None
    return [[row.get(j, zero) for j in range(n)] for row in sparse], pivots


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
    for _, pv, swapped in _eliminate(_sparse(matrix), False, n):
        if pv is None:
            return matrix[0][0] - matrix[0][0]
        if swapped:
            sign = -sign
        result = pv if result is None else result * pv
    if sign < 0:
        result = -result
    return result


def solve(rows, ncols, columns):
    """One solution x of A x = b for each right-hand side b in ``columns``.

    A has ``ncols`` columns and the sparse ``rows`` ({column: entry}); each
    b is sparse too ({row: entry}).  Each x is the solution with its pivots
    in the leftmost columns possible and every free variable zero, as a
    dict {column: value} of its nonzero entries in column order (so the
    zero vector is ``{}``), or None where b is inconsistent.  The exact
    elimination pivots in A's columns only, and is restricted by a rank
    profile mod P when it can be (see the module docstring).
    """
    bcols = range(ncols, ncols + len(columns))
    aug = [{j: x for j, x in row.items() if not x.is_zero()} for row in rows]
    for k, b in zip(bcols, columns):
        for i, x in b.items():
            if not x.is_zero():
                aug[i][k] = x
    restricted = _restrict(aug, ncols, bcols)
    if restricted is not None:
        sub, end = restricted
        xs = _reduce(sub, end, bcols)[1]
        if all(x is not None and _satisfies(rows, b, x)
               for x, b in zip(xs, columns)):
            return xs
    return _reduce(aug, ncols, bcols)[1]


def _reduce(rows, npivot, bcols, p=None):
    """Reduce ``rows`` in place, pivoting in the columns before ``npivot``.
    Returns the pivot columns and, for each column k in ``bcols``, the
    solution {pivot column: value} for the right-hand side held there, or
    None where that side keeps an entry below the rank."""
    pivots = [c for c, pv, _ in _eliminate(rows, True, npivot, p) if pv is not None]
    below = rows[len(pivots):]
    return pivots, [None if any(k in row for row in below)
                    else {c: row[k] for row, c in zip(rows, pivots) if k in row}
                    for k in bcols]


def _restrict(aug, ncols, bcols):
    """The subsystem the exact solve runs on, read off a rank profile mod P:
    the pivot rows of the columns before ``end``, the last column any
    solution mod P uses plus one, cut to those columns and the right-hand
    sides.  Returns (rows, end), or None when some entry has no residue or
    some right-hand side looks inconsistent mod P (a multiple of P can
    vanish there and not over Q).  The rows come in the order they became
    pivots mod P, so that where the elimination mod P meets a zero exactly
    where the exact one does, the exact elimination takes the same pivot row
    for each column as the full one."""
    residues = []
    for row in aug:
        res = {}
        for j, x in row.items():
            residue = getattr(x, "residue", None)
            v = None if residue is None else residue(P)
            if v is None:
                return None
            if v:
                res[j] = v
        residues.append(res)
    position = {id(row): i for i, row in enumerate(residues)}
    pivots, xs = _reduce(residues, ncols, bcols, P)
    if None in xs:
        return None
    end = 1 + max((c for x in xs for c in x), default=-1)
    return [{j: x for j, x in aug[position[id(row)]].items()
             if j < end or j >= ncols}
            for row, c in zip(residues, pivots) if c < end], end


def _satisfies(rows, b, x):
    """Whether sum_c row[c] x[c] equals b's entry exactly in every row."""
    for i, row in enumerate(rows):
        lhs = None
        for c, v in x.items():
            if c in row:
                term = row[c] * v
                lhs = term if lhs is None else lhs + term
        rhs = b.get(i)
        if rhs is not None:
            lhs = -rhs if lhs is None else lhs - rhs
        if lhs is not None and not lhs.is_zero():
            return False
    return True


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
