"""Univariate division and the one-parameter gcd, checked against sympy.

``numberfield.poly_divmod`` is compared with ``sympy.div`` over Q and with
the defining identity a = q*b + r over Q(zeta5); ``NumberField.inv`` (an
extended Euclid on ``poly_divmod``) with the product a * a^-1; and the
reduced fraction stored by a one-parameter ``ParamElem`` with
``sympy.cancel``, its denominator made monic.  sympy is used in tests only.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from hopfgalois.numberfield import NumberField, poly_divmod
from hopfgalois.params import ParamElem, ParamField

Q = NumberField.rationals()
K = NumberField.cyclotomic(5)
X = sympy.Symbol("x")

small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
nonzero = small.filter(bool)


def rational_polys(min_size):
    # trailing zeros are drawn on purpose: poly_divmod must ignore them
    return st.lists(st.one_of(small, st.just(Fraction(0))),
                    min_size=min_size, max_size=8)


def to_sympy(coeffs):
    return sum((sympy.Rational(c.numerator, c.denominator) * X ** k
                for k, c in enumerate(coeffs)), sympy.Integer(0))


def from_sympy(expr):
    """Coefficients constant first, without trailing zeros."""
    coeffs = sympy.Poly(expr, X, domain="QQ").all_coeffs()[::-1]
    out = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=200, deadline=None)
@given(rational_polys(0), rational_polys(1).filter(any))
def test_poly_divmod_over_q_matches_sympy_div(a, b):
    q, r = poly_divmod(Q, [(c,) for c in a], [(c,) for c in b])
    sq, sr = sympy.div(to_sympy(a), to_sympy(b), X, domain="QQ")
    assert [c for (c,) in q] == from_sympy(sq)
    assert [c for (c,) in r] == from_sympy(sr)


elements = st.lists(small, min_size=4, max_size=4).map(tuple)
nonzero_elements = elements.filter(any)


def trimmed(p):
    p = list(p)
    while p and not any(p[-1]):
        p.pop()
    return p


def poly_mul(f, a, b):
    out = [f.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def poly_add(f, a, b):
    n = max(len(a), len(b))
    a = list(a) + [f.zero] * (n - len(a))
    b = list(b) + [f.zero] * (n - len(b))
    return [f.add(x, y) for x, y in zip(a, b)]


@settings(max_examples=100, deadline=None)
@given(st.lists(elements, max_size=5),
       st.lists(elements, max_size=3).flatmap(
           lambda low: nonzero_elements.map(lambda lead: low + [lead])))
def test_poly_divmod_over_cyclotomic_field(a, b):
    q, r = poly_divmod(K, a, b)
    assert trimmed(q) == q and trimmed(r) == r
    assert len(r) < len(b)
    assert trimmed(poly_add(K, poly_mul(K, q, b), r)) == trimmed(a)


@settings(max_examples=100, deadline=None)
@given(nonzero_elements)
def test_number_field_inverse_is_inverse(a):
    assert K.mul(a, K.inv(a)) == K.one
    assert K.mul(K.inv(a), a) == K.one


PF = ParamField(("q",))
int_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any)


def to_param_dict(expr):
    coeffs = sympy.Poly(expr, X, domain="QQ").all_coeffs()[::-1]
    return {(k,): (Fraction(int(c.p), int(c.q)),)
            for k, c in enumerate(coeffs) if c}


def from_param_dict(d):
    return {k: c for (k,), (c,) in d.items()}


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys, int_polys, st.integers(0, 2), st.integers(0, 2))
def test_one_parameter_elements_are_stored_reduced(f, g, h, i, j):
    # num = x^i * f * g and den = x^j * h * g share the factor g
    common = to_sympy([Fraction(c) for c in g])
    num = sympy.expand(X ** i * to_sympy([Fraction(c) for c in f]) * common)
    den = sympy.expand(X ** j * to_sympy([Fraction(c) for c in h]) * common)
    elem = ParamElem(PF, to_param_dict(num), to_param_dict(den))
    n, d = sympy.fraction(sympy.cancel(num / den))
    lead = sympy.Poly(d, X).LC()
    assert from_param_dict(elem.num) == from_param_dict(to_param_dict(n / lead))
    assert from_param_dict(elem.den) == from_param_dict(to_param_dict(d / lead))
