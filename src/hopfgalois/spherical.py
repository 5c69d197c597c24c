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

from . import linalg
from .polyring import RatFunc, try_divide
from .verify import (COUNTEREXAMPLE, INCONCLUSIVE, VERIFIED, VerificationReport,
                     normal_form_keys)


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
    witness combination or inconclusive-at-bound.
    """
    report = partial(VerificationReport, "morita-witness",
                     bounds={"word-length": word_length},
                     provenance="1 in F e F makes the order Morita equivalent to "
                                "its centralizer")
    S = presentation.setting
    ring = S.ring
    params = ring.params
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
    products = [(words[i][0], words[j][0], aes[i] * words[j][1])
                for i in _first_distinct(aes) for j in right]
    target = S.one()
    keys = normal_form_keys([p for _, _, p in products] + [target])
    # per normal-form key: clear denominators once, then match per monomial
    zero_rf = RatFunc.of(ring.zero)
    rows_by_mono = {}
    rhs_by_mono = {}
    for kidx, key in enumerate(keys):
        coeffs = [p.terms.get(key, zero_rf) for _, _, p in products]
        tcoeff = target.terms.get(key, zero_rf)
        # every key has a nonzero coefficient, so some denominator enters den_all
        den_all = _common_denominator(ring, coeffs + [tcoeff])
        for idx, c in enumerate(coeffs):
            if c.is_zero():
                continue
            for exps, coeff in _clear(c, den_all).terms.items():
                row = rows_by_mono.setdefault((kidx, exps),
                                              [params.zero] * len(products))
                row[idx] = row[idx] + coeff
        if not tcoeff.is_zero():
            for exps, coeff in _clear(tcoeff, den_all).terms.items():
                rhs_by_mono[(kidx, exps)] = \
                    rhs_by_mono.get((kidx, exps), params.zero) + coeff
    all_rows = sorted(set(rows_by_mono) | set(rhs_by_mono))
    matrix = []
    rhs = []
    for rk in all_rows:
        matrix.append(rows_by_mono.get(rk, [params.zero] * len(products)))
        rhs.append(rhs_by_mono.get(rk, params.zero))
    sol = linalg.solve(matrix, [rhs])[0] if matrix else None
    if sol is None:
        return report(INCONCLUSIVE, {"words": len(words)})
    combo = []
    total = S.zero()
    for c, (aname, bname, prod) in zip(sol, products):
        if not c.is_zero():
            combo.append([aname, bname, str(c)])
            total = total + prod.scale(RatFunc.of(ring.const(c)))
    if not (total == target):
        raise AssertionError("witness replay failed")
    return report(VERIFIED, {"combination": combo})


def _first_distinct(values):
    """Indices of the first occurrence of each distinct nonzero value."""
    kept = []
    for i, v in enumerate(values):
        if not v.is_zero() and not any(v == values[k] for k in kept):
            kept.append(i)
    return kept


def _common_denominator(ring, rfs):
    """The product of the distinct denominators of the nonzero ``rfs``."""
    dens = []
    for c in rfs:
        if not c.is_zero() and not any(c.den == d for d in dens):
            dens.append(c.den)
    total = ring.one
    for d in dens:
        total = total * d
    return total


def _clear(rf, den_all):
    if den_all.is_constant():
        # every denominator divides a constant, so each is already 1
        return rf.num
    # rf.den is one factor of den_all, so the division is exact
    return rf.num * try_divide(den_all, rf.den)
