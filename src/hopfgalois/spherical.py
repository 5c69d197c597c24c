"""Symmetrizing idempotent, symmetrization, the centralizer map, and Morita data.

With e the average of the finite group, conjugation-invariant elements X
map to eXe; the map is multiplicative on invariants and injective, which
is checked here on spanning slices.  Invariant polynomials are produced by
Reynolds-averaging monomials: enough to span each degree slice without any
invariant-theory machinery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain

from . import linalg
from .polyring import RatFunc, try_divide
from .verify import COUNTEREXAMPLE, INCONCLUSIVE, VERIFIED, VerificationReport


def idempotent(setting):
    """e = (1/|W|) sum_w w; requires nothing beyond exact rationals."""
    return setting.symmetrizing_idempotent()


def symmetrize(element):
    """(1/|W|) sum_w w X w^{-1}."""
    S = element.setting
    total = S.zero()
    for w in range(S.group_size):
        total = total + element.conjugate_by(S.gp(w))
    inv = S.ring.params.from_fraction(Fraction(1, S.group_size))
    return total.scale(RatFunc.of(S.ring.const(inv)))


def is_invariant(element):
    S = element.setting
    return all(element.conjugate_by(S.gp(w)) == element
               for w in range(1, S.group_size))


def psi(element):
    """The centralizer map X -> eXe, defined on conjugation-invariant X."""
    if not is_invariant(element):
        raise ValueError("psi is defined on conjugation-invariant elements only")
    e = idempotent(element.setting)
    return e * element * e


def reynolds(setting, poly):
    """The group average of a polynomial."""
    total = setting.ring.zero
    for w in range(setting.group_size):
        total = total + setting.gp_act(setting.gp(w), poly)
    return total * setting.ring.params.from_fraction(Fraction(1, setting.group_size))


def invariant_basis(setting, degree):
    """Reynolds images of monomials of degree <= d, deduplicated.

    Spans the invariant slice of each degree since averaging is a
    projection onto invariants and monomials span everything.
    """
    ring = setting.ring
    out = []
    for exps in ring.monomials_up_to(degree, include_negative=True):
        img = reynolds(setting, ring.monomial(exps))
        if img.is_zero():
            continue
        if any(img == seen for seen in out):
            continue
        out.append(img)
    return out


def spherical_axiom_check(named_generators, setting, degree):
    """Generators map invariant polynomials to invariant polynomials.

    Applies each (invariant) generator to every Reynolds basis element of
    degree <= d and checks the image is a lattice element fixed by the
    group.
    """
    report = partial(VerificationReport, "spherical-axiom", bounds={"degree": degree},
                     provenance="spherical generators keep invariants invariant")
    basis = invariant_basis(setting, degree)
    for name, g in named_generators:
        for f in basis:
            img = g.apply(RatFunc.of(f))
            if not img.is_in_lattice():
                reason = "image not in lattice"
            elif any(setting.gp_act(setting.gp(w), img) != img
                     for w in range(1, setting.group_size)):
                reason = "image not group-fixed"
            else:
                continue
            return report(COUNTEREXAMPLE, {"generator": name, "input": str(f),
                                           "image": str(img), "reason": reason})
    return report(VERIFIED, {"generators": [n for n, _ in named_generators],
                             "basis-size": len(basis)})


def _word_pool(presentation, word_length):
    """Products of generators up to the given length, named, plus 1."""
    # A function of its own, not an inline call: bench/spans.py wraps
    # _word_pool by name and counts spherical.morita_products as len**2.
    # That is the pool squared (961 on spherical-rd-s2), not the products
    # morita_witness forms, which are over distinct a*e and e*b only (289).
    return presentation.words(word_length)


def morita_witness(presentation, word_length):
    """Decide 1 in F e F over words of bounded length by exact linear algebra.

    Sets up sum_{i,j} c_{ij} A_i e B_j = 1 with A_i, B_j generator words of
    length <= d and scalar unknowns over the parameter field; returns the
    witness combination or inconclusive-at-bound.  Each product A_i e B_j
    is folded into the sparse rows of the system as soon as it is formed,
    and dropped; only the index pairs are kept, and the replay forms again
    just the products whose coefficient is nonzero.
    """
    report = partial(VerificationReport, "morita-witness",
                     bounds={"word-length": word_length},
                     provenance="1 in F e F makes the order Morita equivalent to "
                                "its centralizer")
    S = presentation.setting
    ring = S.ring
    if S.group_size == 1:
        return report(VERIFIED, {"combination": [["1", "1", "1"]],
                                 "note": "trivial group: e = 1"})
    e = idempotent(S)
    words = _word_pool(presentation, word_length)
    # A word whose a*e repeats an earlier one (or is zero) only adds columns
    # equal to earlier ones (or zero), which solve leaves at 0; so does a
    # word whose e*b repeats, as ae*b = ae*(e*b).  Forming ae*b over the
    # first word of each distinct nonzero a*e and e*b gives the same witness.
    aes = [a * e for _, a in words]
    right = _first_distinct([e * b for _, b in words])
    pairs = [(i, j) for i in _first_distinct(aes) for j in right]

    def product(col):
        i, j = pairs[col]
        return aes[i] * words[j][1]

    n = len(pairs)
    target = S.one()
    # the target is column n of the fold, then the right-hand side
    rows = _fold(ring, chain(((col, product(col)) for col in range(n)),
                             [(n, target)]))
    rhs = {r: row.pop(n) for r, row in enumerate(rows) if n in row}
    (sol,) = linalg.solve(rows, n, [rhs])
    if sol is None:
        return report(INCONCLUSIVE, {"words": len(words)})
    combo = []
    total = S.zero()
    for col, c in sol.items():
        i, j = pairs[col]
        combo.append([words[i][0], words[j][0], str(c)])
        total = total + product(col).scale(RatFunc.of(ring.const(c)))
    if not (total == target):
        raise AssertionError("witness replay failed")
    return report(VERIFIED, {"combination": combo})


def _fold(ring, columns):
    """The rows of sum_k x_k X_k over the normal-form monomials, sparse.

    ``columns`` yields (k, X_k) in increasing k, and each X_k is dropped
    once folded in.  Each normal-form key clears its coefficients over D,
    the product of the distinct denominators it has seen so far: a new
    denominator d multiplies D and the key's cleared coefficients by d, so
    in the end every key is cleared over the product of all its distinct
    denominators, in order of arrival.  A row is {k: coefficient} for one
    (key, main-variable monomial), rows sorted by both.
    """
    cleared = {}   # key -> [distinct denominators, D, {k: cleared poly}]
    for k, x in columns:
        for key, c in x.terms.items():
            state = cleared.get(key)
            if state is None:
                state = cleared[key] = [[], ring.one, {}]
            dens, D, polys = state
            if not any(c.den == d for d in dens):
                dens.append(c.den)
                D = state[1] = D * c.den
                for earlier, poly in polys.items():
                    polys[earlier] = poly * c.den
            # a constant D means every denominator so far is 1
            polys[k] = c.num if D.is_constant() else c.num * try_divide(D, c.den)
    rows = []
    for key in sorted(cleared):
        by_mono = {}
        for k, poly in cleared.pop(key)[2].items():
            for exps, coeff in poly.terms.items():
                by_mono.setdefault(exps, {})[k] = coeff
        rows.extend(by_mono[exps] for exps in sorted(by_mono))
    return rows


def _first_distinct(values):
    """Indices of the first occurrence of each distinct nonzero value."""
    kept = []
    for i, v in enumerate(values):
        if not v.is_zero() and not any(v == values[k] for k in kept):
            kept.append(i)
    return kept
