"""Test oracles and test-only helpers: no subcommand runs them.

They recompute by another route what the package computes, and they use
only public names of ``hopfgalois`` (``tests/test_oracles.py`` checks that).
"""

from math import factorial

from hopfgalois import linalg
from hopfgalois.hcmod import DistributionVector
from hopfgalois.polyring import RatFunc, taylor_jet, try_divide
from hopfgalois.sparse import add_into, add_terms
from hopfgalois.spherical import idempotent
from hopfgalois.verify import normal_form_keys


def left_rank_oracle(elements):
    """Rank of the elements' normal-form coefficient matrix over the fraction
    field (``verify`` picks its generators by one ``row_reduce`` instead)."""
    keys = normal_form_keys(elements)
    if not keys:
        return 0
    ring = elements[0].setting.ring
    zero = RatFunc.of(ring.zero)
    rows = [[x.terms.get(k, zero) for k in keys] for x in elements]
    return linalg.rank(rows)


def morita_rows_oracle(presentation, word_length):
    """The sparse rows of the Morita system built with every product alive
    at once, as ``spherical.morita_witness`` built them before it streamed.

    One column per product a*e*b over the first word of each distinct
    nonzero a*e and e*b, and the target 1 as the last column.  Each
    normal-form key clears its coefficients over the product of all its
    distinct denominators, in column order.  Rows are sorted by key, then by
    monomial.  Returns (rows, the most distinct denominators at one key).
    """
    S = presentation.setting
    e = idempotent(S)
    words = presentation.words(word_length)
    aes = [a * e for _, a in words]
    right = first_distinct([e * b for _, b in words])
    columns = [aes[i] * words[j][1] for i in first_distinct(aes)
               for j in right] + [S.one()]
    rows, most = [], 0
    for key in normal_form_keys(columns):
        coeffs = [(k, x.terms[key]) for k, x in enumerate(columns) if key in x.terms]
        dens = []
        for _, c in coeffs:
            if not any(c.den == d for d in dens):
                dens.append(c.den)
        most = max(most, len(dens))
        den_all = S.ring.one
        for d in dens:
            den_all = den_all * d
        by_mono = {}
        for k, c in coeffs:
            for exps, coeff in (c.num * try_divide(den_all, c.den)).terms.items():
                by_mono.setdefault(exps, {})[k] = coeff
        rows.extend(by_mono[exps] for exps in sorted(by_mono))
    return rows, most


def first_distinct(values):
    """Indices of the first occurrence of each distinct nonzero value."""
    kept = []
    for i, v in enumerate(values):
        if not v.is_zero() and not any(v == values[k] for k in kept):
            kept.append(i)
    return kept


def invariant_coordinate_subspaces(matrices, dim):
    """All proper nonzero coordinate subspaces invariant under the matrices,
    by brute force: each matrix must map the subset's columns into it."""
    out = []
    for mask in range(1, (1 << dim) - 1):
        subset = [i for i in range(dim) if mask & (1 << i)]
        if all(M[i][j].is_zero() for M in matrices for j in subset
               for i in range(dim) if i not in subset):
            out.append(subset)
    return out


def cyclic_closure_dims(matrices, dim, params):
    """dim of the submodule generated by each coordinate basis vector, grown
    by ``linalg.extend``; a matrix-vector product multiplies no zero entry."""
    def times(M, v):
        return [sum((a * b for a, b in zip(row, v)
                     if not (a.is_zero() or b.is_zero())), params.zero) for row in M]

    dims = []
    for j in range(dim):
        rows, pivots = [], []
        queue = [[params.one if i == j else params.zero for i in range(dim)]]
        while queue:
            if linalg.extend(rows, pivots, queue.pop()):
                queue.extend(times(M, rows[-1]) for M in matrices)
        dims.append(len(rows))
    return dims


def derivative_delta(ring, coords, index):
    """The functional f -> (d^index f)(p), the classical delta derivative."""
    c = ring.params.from_fraction(1)
    for k in index:
        c = c * factorial(k)
    return DistributionVector(ring, [(tuple(coords), {tuple(index): c})])


def evaluate(xi, value):
    """Pair the functional with a lattice element (or rational function)."""
    rf = RatFunc.of(value)
    total = xi.ring.params.zero
    for coords, tab in xi.entries:
        jet = taylor_jet(rf, coords, max(sum(a) for a in tab))
        for a, c in tab.items():
            total = total + c * jet[a]
    return total


def right_normal_form(x, twist_inv=None):
    """Rewrite with coefficients on the right: list of (gp, alpha, coeff).
    ``twist_inv`` maps each twisted generator's name to the substitution
    that undoes its twist."""
    S = x.setting
    collected = {}
    for (g, alpha), f in x.terms.items():
        moved = S.gp_act(S.gp_inv(g), f)
        for beta, c in push_right(S, moved, alpha, twist_inv or {}).items():
            add_into(collected, (g, beta), c)
    return [(g, beta, c) for (g, beta), c in
            sorted(collected.items(), key=lambda kv: (kv[0][0], kv[0][1]))]


def push_right(S, f, alpha, twist_inv):
    """f * E^alpha = sum E^beta * c_beta with coefficients on the right."""
    if not any(alpha):
        return {alpha: f}
    j = next(k for k, x in enumerate(alpha) if x)
    rest = tuple(x - (1 if k == j else 0) for k, x in enumerate(alpha))
    gen = S.inf_gens[j]
    h = twist_inv_act(gen, f, twist_inv)
    out = {tuple(x + (1 if k == j else 0) for k, x in enumerate(beta)): c
           for beta, c in push_right(S, h, rest, twist_inv).items()}
    dh = gen.act(h)
    if not dh.is_zero():
        out = add_terms(out, push_right(S, -dh, rest, twist_inv))
    return out


def twist_inv_act(gen, rf, twist_inv):
    """``rf`` under the inverse of ``gen``'s twist, read from ``twist_inv``."""
    if gen.twist is None:
        return RatFunc.of(rf)
    return RatFunc.of(rf).substitute(twist_inv[gen.name])


def expand_right_form(S, right_terms):
    """Rebuild the element from right-normal-form terms (for round trips)."""
    total = S.zero()
    for g, beta, c in right_terms:
        el = S.group_element(g.w, g.mu)
        for j, x in enumerate(beta):
            if x:
                el = el * S.inf_element(j, x)
        total = total + el * S.from_ratfunc(c)
    return total


def constant_value(x):
    """The number-field value of a constant parameter element."""
    zero = (0,) * x.field.nparams
    if x.num and set(x.num) != {zero} or set(x.den) != {zero}:
        raise ValueError("not a constant: %s" % x)
    if not x.num:
        return x.field.nf.zero
    return x.field.nf.div(x.num[zero], x.den[zero])
