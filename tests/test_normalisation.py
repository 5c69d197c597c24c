"""Normalisation of parameter fractions and rational functions.

A ``ParamElem`` or ``RatFunc`` whose operands both have denominator 1
stores its product and sum without normalising them, because
normalisation would return them unchanged.  The guard below makes
normalisation raise and checks that such arithmetic still runs; the
hypothesis properties compare ``+``, ``-``, ``*``, ``/`` and ``==`` with
sympy's rational function field, whose elements are kept cancelled as
``sympy.cancel`` leaves them, on operands with unit and non-unit
denominators, and
check that every stored unit-denominator result is, item for item and in
order, what the full normalisation returns.  A sum over nested
denominators is stored over the larger one, and one over factored
denominators that overlap without nesting over their lcm; sums of
fractions over products of linear forms, nested or not, are checked
against ``sympy.cancel``.  sympy is used in tests only.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ
from sympy.polys.fields import field

from hopfgalois import polyring, sparse
from hopfgalois.params import ParamElem, ParamField, _dict_add, _dict_mul
from hopfgalois.polyring import PolyRing, RatFunc, try_divide


def _refuse(*args):
    raise AssertionError("normalised a unit-denominator result")


def test_unit_denominators_skip_normalisation(monkeypatch):
    cases = []
    for names in [(), ("q",), ("q", "t")]:
        pf = ParamField(names)
        gens = [pf.param(n) for n in names]
        a = sum(gens, pf.from_fraction(Fraction(1, 2)))
        b = pf.from_int(3) if not gens else gens[0] * gens[-1] - 2
        cases.append((a, b, a * b, a + b, a - b))
        R = PolyRing(("x", "z"), laurent=(False, True), params=pf)
        x, z = R.var(0), R.var(1)
        f = RatFunc.of(x * a + z ** -1)
        g = RatFunc.of(z ** 2 * b - x)
        cases.append((f, g, f * g, f + g, f - g))
        cases.append((f, f, f * f, f + f, f - f))
    monkeypatch.setattr(ParamElem, "_normalize", staticmethod(_refuse))
    monkeypatch.setattr(RatFunc, "_cancel_monomials", staticmethod(_refuse))
    for a, b, prod, total, diff in cases:
        assert a * b == prod and b * a == prod
        assert a + b == total and b + a == total
        assert a - b == diff
        assert a == a and (a == b) == (a is b)
        assert a * 2 == a + a
    monkeypatch.undo()


def test_inverting_a_constant_numerator_skips_normalisation(monkeypatch):
    pf = ParamField(("q",))
    q = pf.param("q")
    inv_q, two = 1 / q, pf.from_fraction(2)
    monkeypatch.setattr(ParamElem, "_normalize", staticmethod(_refuse))
    assert inv_q.inverse() == q
    assert str(two.inverse()) == "1/2"
    monkeypatch.undo()


def test_parameter_fields_do_not_mix():
    q = ParamField(("q",)).param("q")
    t = ParamField(("t",)).param("t")
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(ValueError, match="parameter field mismatch"):
            op(q, t)
    # equal fields built apart still mix
    assert q + ParamField(("q",)).param("q") == 2 * q


def test_other_denominators_are_still_reduced():
    pf = ParamField(("q",))
    one = pf.nf.one
    e = ParamElem(pf, {(2,): one, (0,): pf.nf.from_int(-1)},
                  {(1,): one, (0,): pf.nf.from_int(-1)})
    assert e.num == {(1,): one, (0,): one} and e.den == {(0,): one}
    R = PolyRing(("x",), params=pf)
    x = R.var(0)
    r = RatFunc(x ** 2 - 1, x - 1)
    assert r.num.terms == (x + 1).terms and r.den.terms == R.one.terms


# -- hypothesis properties against sympy ------------------------------------

# sympy's rational function field over QQ keeps every element cancelled,
# as sympy.cancel does, so == there is equality of values.
PK, P_Q, P_T = field("q,t", QQ)
RK, R_X, R_Z, R_Q = field("x,z,q", QQ)

PF = ParamField(("q", "t"))
NF = PF.nf

coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))


def param_dicts(nparams, min_size, max_size=3):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nparams),
                           coeffs.map(NF.from_fraction),
                           min_size=min_size, max_size=max_size)


def unit(field):
    return {field._zero_exp: field.nf.one}


unit_params = param_dicts(2, 0).map(lambda num: ParamElem(PF, num, unit(PF)))
other_params = st.builds(lambda num, den: ParamElem(PF, num, den),
                         param_dicts(2, 0), param_dicts(2, 1))
params = st.one_of(unit_params, other_params)


def oracle_poly(d, gens, one):
    out = 0 * one
    for e, (c,) in d.items():
        term = one * QQ(c.numerator, c.denominator)
        for g, k in zip(gens, e):
            term *= g ** k
        out += term
    return out


def param_oracle(c, gens=(P_Q, P_T), one=PK.one):
    return oracle_poly(c.num, gens, one) / oracle_poly(c.den, gens, one)


def items(c):
    return list(c.num.items()), list(c.den.items())


@settings(max_examples=150, deadline=None)
@given(params, params)
def test_param_arithmetic_matches_sympy(a, b):
    sa, sb = param_oracle(a), param_oracle(b)
    assert param_oracle(a + b) == sa + sb
    assert param_oracle(a - b) == sa - sb
    assert param_oracle(a * b) == sa * sb
    if not b.is_zero():
        assert param_oracle(a / b) == sa / sb
    assert (a == b) == (sa == sb)
    # the same value written over a common factor
    g = {(1, 0): NF.one, (0, 1): NF.from_int(2)}
    assert a == ParamElem(PF, _dict_mul(NF, a.num, g), _dict_mul(NF, a.den, g))


@settings(max_examples=150, deadline=None)
@given(unit_params, unit_params)
def test_unit_param_results_are_stored_normalised(a, b):
    assert items(a * b) == items(ParamElem(PF, _dict_mul(NF, a.num, b.num),
                                           _dict_mul(NF, a.den, b.den)))
    assert items(a + b) == items(ParamElem(PF, _dict_add(NF, a.num, b.num), dict(a.den)))
    assert items(a - b) == items(ParamElem(PF, _dict_add(NF, a.num, (-b).num), dict(a.den)))


@settings(max_examples=100, deadline=None)
@given(coeffs, param_dicts(2, 1))
def test_constant_numerator_inverse_is_stored_normalised(c, den):
    a = ParamElem(PF, {PF._zero_exp: NF.from_fraction(c)}, den)
    assert items(a.inverse()) == items(ParamElem(PF, dict(a.den), dict(a.num)))


# x plain, z Laurent, coefficients in one parameter q
RPF = ParamField(("q",))
R = PolyRing(("x", "z"), laurent=(False, True), params=RPF)

small_params = st.builds(
    lambda num, den: ParamElem(RPF, num, den),
    param_dicts(1, 1, 2), st.one_of(st.just(unit(RPF)), param_dicts(1, 1, 2)))


def polys(min_size):
    return st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-1, 1)),
                           small_params, min_size=min_size, max_size=3).map(
        lambda terms: sum((R.monomial(e, c) for e, c in terms.items()), R.zero))


unit_ratfuncs = polys(0).map(RatFunc)
other_ratfuncs = st.builds(RatFunc, polys(0), polys(1))
ratfuncs = st.one_of(unit_ratfuncs, other_ratfuncs)


def poly_oracle(p):
    out = RK.zero
    for (i, j), c in p.terms.items():
        out += param_oracle(c, (R_Q,), RK.one) * R_X ** i * R_Z ** j
    return out


def rat_oracle(r):
    return poly_oracle(r.num) / poly_oracle(r.den)


def rat_items(r):
    return [[(e, items(c)) for e, c in p.terms.items()] for p in (r.num, r.den)]


@settings(max_examples=100, deadline=None)
@given(ratfuncs, ratfuncs)
def test_ratfunc_arithmetic_matches_sympy(a, b):
    sa, sb = rat_oracle(a), rat_oracle(b)
    assert rat_oracle(a + b) == sa + sb
    assert rat_oracle(a - b) == sa - sb
    assert rat_oracle(a * b) == sa * sb
    if not b.is_zero():
        assert rat_oracle(a / b) == sa / sb
    assert (a == b) == (sa == sb)
    # the same value written over a common factor
    g = R.var(0) + 1
    assert a == RatFunc(a.num * g, a.den * g)


@settings(max_examples=100, deadline=None)
@given(unit_ratfuncs, unit_ratfuncs)
def test_unit_ratfunc_results_are_stored_normalised(a, b):
    assert rat_items(a * b) == rat_items(RatFunc(a.num * b.num, a.den * b.den))
    assert rat_items(a + b) == rat_items(RatFunc(a.num + b.num, a.den))
    assert rat_items(a - b) == rat_items(RatFunc(a.num + (-b).num, a.den))
    assert rat_items(RatFunc(a.num)) == rat_items(RatFunc(a.num, R.one))


# -- sums over nested denominators ------------------------------------------

def _monic(p):
    return RatFunc(p.ring.one, p).den


def test_nested_sum_is_over_the_larger_denominator():
    # a/d + b/(d e) = (a e + b)/(d e), not (a d e + b d)/(d^2 e)
    q = RPF.param("q")
    P = PolyRing(("x", "y"), params=RPF)
    x, y = P.var(0), P.var(1)
    z = R.var(1)  # Laurent
    cases = [(2 * x - y * q, x + y + 1, x * y, y - 3),
             (z - q, R.var(0) * z + 1, z ** -1, R.var(0) + q)]
    for d, e, a, b in cases:
        small, large = RatFunc(a, d), RatFunc(b, d * e)
        assert small.den.terms == _monic(d).terms
        assert large.den.terms == _monic(d * e).terms
        for total in (small + large, large + small):
            assert total.den.terms == _monic(d * e).terms
            assert total == RatFunc(a * d * e + b * d, d * d * e)


def test_sums_that_cancel_are_zero_over_one():
    P = PolyRing(("x", "y"), params=RPF)
    x, y = P.var(0), P.var(1)
    d, u, v = x - y, x + 1, y + 2
    nested = RatFunc(P.one, d) + RatFunc(-u, d * u)
    # d u and d v: neither divides the other
    crossed = RatFunc(u, d * u) + RatFunc(-v, d * v)
    for total in (nested, crossed):
        assert total.num.is_zero() and total.den.is_one()


# Products of the linear forms below, none a monomial, make the
# denominators; the second one is the first times more forms (nested) or
# drawn on its own.  x plain, z Laurent, as in R.
LINEAR_FORMS = [R.var(0) - R.var(1), R.var(0) + R.var(1), R.var(1) - RPF.param("q"),
                2 * R.var(0) + R.var(1) + 1, R.var(0) + RPF.param("q")]
SQ, SX, SZ = sympy.symbols("q x z")


def _product(indices):
    out = R.one
    for i in indices:
        out = out * LINEAR_FORMS[i]
    return out


def _sympy_poly(p):
    def param(d):
        return sum(sympy.Rational(c.numerator, c.denominator) * SQ ** k
                   for (k,), (c,) in d.items())

    return sum((param(c.num) / param(c.den) * SX ** i * SZ ** j
                for (i, j), c in p.terms.items()), sympy.Integer(0))


def _degree(p):
    return max(sum(e) for e in p.terms)


form_lists = st.lists(st.integers(0, len(LINEAR_FORMS) - 1), max_size=3)
numerators = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-1, 1)),
    st.sampled_from([RPF.from_int(1), RPF.from_int(-2), RPF.from_fraction(Fraction(1, 2)),
                     RPF.param("q"), RPF.param("q") - 1]),
    max_size=3).map(lambda terms: sum((R.monomial(e, c) for e, c in terms.items()), R.zero))


@settings(max_examples=60, deadline=None)
@given(numerators, numerators, form_lists, form_lists, st.booleans(), st.booleans())
def test_sums_over_products_of_linear_forms_match_sympy(na, nb, da, extra, nested, flip):
    d1 = _product(da)
    d2 = _product(da + extra) if nested else _product(extra)
    a, b = RatFunc(na, d1), RatFunc(nb, d2)
    total = b + a if flip else a + b
    oracle = _sympy_poly(na) / _sympy_poly(d1) + _sympy_poly(nb) / _sympy_poly(d2)
    assert sympy.cancel(_sympy_poly(total.num) / _sympy_poly(total.den) - oracle) == 0
    bound = _degree(a.den) + _degree(b.den)
    if try_divide(a.den, b.den) is not None or try_divide(b.den, a.den) is not None:
        bound = max(_degree(a.den), _degree(b.den))
    assert _degree(total.den) <= bound


# -- factored denominators ---------------------------------------------------

# A product of fractions 1/f keeps each f as a factor, and a denominator
# passed expanded is one factor.  Side a takes expanded products of the forms
# (a "group"), side b single forms, so the two overlap without nesting
# (f1^2*f2 against f1*f3) or with a form of b dividing a group of a.  Exact
# division by the single forms then refines every group that shares a form
# with them, and a sum that does not cancel is over the lcm.
def _over(num, groups):
    out = RatFunc.of(num)
    for g in groups:
        out = out * RatFunc(R.one, _product(g))
    return out


def _value(r):
    return _sympy_poly(r.num) / _sympy_poly(r.den)


def _lcm_degree(d1, d2):
    lcm = sympy.lcm(_sympy_poly(d1), _sympy_poly(d2), SX, SZ, domain="QQ(q)")
    return sympy.Poly(lcm, SX, SZ, domain="QQ(q)").total_degree()


IMAGES = [{0: R.var(0) + 1, 1: R.var(1) ** -1},
          {0: R.var(0) + R.var(1), 1: R.var(1) * RPF.param("q")}]
groups = st.lists(st.lists(st.integers(0, len(LINEAR_FORMS) - 1), min_size=1, max_size=3),
                  max_size=2)
singles = st.lists(st.integers(0, len(LINEAR_FORMS) - 1).map(lambda i: [i]), max_size=3)


@settings(max_examples=80, deadline=None)
@given(numerators, numerators, groups, singles, st.booleans(), st.sampled_from([0, 1]))
def test_factored_arithmetic_matches_sympy_and_sums_over_the_lcm(na, nb, ga, gb, flip,
                                                                 image):
    a, b = _over(na, ga), _over(nb, gb)
    sa, sb = _value(a), _value(b)
    total = b + a if flip else a + b
    for got, want in [(total, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]:
        assert sympy.cancel(_value(got) - want) == 0
    if not b.is_zero():
        assert sympy.cancel(_value(a / b) - sa / sb) == 0
    assert (a == b) == (sympy.cancel(sa - sb) == 0)
    assert a == RatFunc(a.num * a.den, a.den * a.den)
    assert _degree(total.den) <= _lcm_degree(a.den, b.den)
    imgs = IMAGES[image]
    subs = {SX: _sympy_poly(imgs[0]), SZ: _sympy_poly(imgs[1])}
    assert sympy.cancel(_value(a.substitute(imgs)) - sa.subs(subs, simultaneous=True)) == 0


def test_factored_sums_split_nested_and_keep_overlapping_factors():
    f1, f2, f3 = LINEAR_FORMS[:3]
    a = _over(R.one, [[0], [0], [1]])             # 1/(f1^2 f2), three factors
    nested = RatFunc(R.one, f1 * f2)              # one factor f1*f2
    crossed = _over(R.var(0), [[0], [2]])         # x/(f1 f3)
    assert [e for _, e in a.facs] == [2, 1]
    assert len(nested.facs) == 1
    for total in (a + nested, nested + a):
        # f1 divides f1*f2: the lcm is f1^2 f2, not f1^3 f2^2
        assert _degree(total.den) == 3
    for total in (a + crossed, crossed + a):
        assert _degree(total.den) == 4
        assert sorted(e for _, e in total.facs) == [1, 1, 2]
        assert total == RatFunc(f3 + R.var(0) * f1 * f2, f1 * f1 * f2 * f3)


# -- the lattice test ----------------------------------------------------------

def _without_z_factor(p):
    # z is a unit in R, so divisibility there is divisibility in QQ(q)[x, z]
    # once each side is shifted to its lowest z power: den is then prime to z
    return p.shift_monomial((0, -p.min_exponents()[1]))


nonzero_numerators = numerators.filter(lambda p: not p.is_zero())


@settings(max_examples=80, deadline=None)
@given(nonzero_numerators, nonzero_numerators, form_lists, form_lists, st.booleans(),
       st.integers(-2, 2))
def test_try_divide_is_none_exactly_when_sympy_leaves_a_remainder(a, b, forms, more,
                                                                   multiple, k):
    # a multiple of den, or a numerator drawn on its own: often of a smaller
    # exponent span than den in x or z, which is rejected before dividing;
    # try_divide gets den times z^k, the oracle both sides without z factors
    den = _without_z_factor(b * _product(forms))
    num = a * _product(more) * (den if multiple else R.one)
    den = den.shift_monomial((0, k))
    quotient = try_divide(num, den)
    _, rem = sympy.div(_sympy_poly(_without_z_factor(num)),
                       _sympy_poly(_without_z_factor(den)), SX, SZ, domain="QQ(q)")
    assert (quotient is None) == (rem != 0)
    if quotient is not None:
        assert quotient * den == num


def test_a_smaller_exponent_span_is_rejected_before_dividing(monkeypatch):
    x, z = R.var(0), R.var(1)
    monkeypatch.setattr(polyring, "divide_terms", _refuse)
    # spans (1, 1) against (2, 0), and (0, 1) against (0, 3) with Laurent support
    assert try_divide(x * z + 1, x ** 2 - 1) is None
    assert try_divide(z + 3, z ** 2 - z ** -1) is None
    monkeypatch.undo()
    assert try_divide(x * z + 1, x * z - 1) is None  # equal spans: divided
    assert try_divide(z ** 2 - z ** -1, z ** 3 - 1) == z ** -1


# Numerators q*d + r with r nonzero and of total degree below lowdeg(q*d),
# on a Laurent ring (x plain, z Laurent) and a plain one (x, y): the long
# division runs through q and then meets r, where a quotient term falls
# below lowdeg(num) - lowdeg(den) and the division stops.
PLAIN = PolyRing(("x", "y"), params=RPF)
COEFFS = [RPF.from_int(1), RPF.from_int(-2), RPF.from_fraction(Fraction(1, 2)),
          RPF.param("q"), RPF.param("q") - 1]


def _forms(ring):
    x, y = ring.var(0), ring.var(1)
    q = RPF.param("q")
    return [x - y, x + y, y - q, 2 * x + y + 1, x + q]


def _low(p):
    return min(sum(e) for e in p.terms)


def _terms(ring, ys, min_size=0):
    return st.dictionaries(st.tuples(st.integers(0, 2), ys), st.sampled_from(COEFFS),
                           min_size=min_size, max_size=3).map(
        lambda terms: sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero))


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data())
def test_try_divide_of_a_multiple_plus_a_low_remainder_matches_sympy(laurent, data):
    ring = R if laurent else PLAIN
    # z exponents of R start at -1; numerators without z factors divide alike
    strip = _without_z_factor if laurent else (lambda p: p)
    forms = _forms(ring)
    draw = data.draw
    den = strip(draw(_terms(ring, st.integers(-1, 1) if laurent else st.integers(0, 2), 1)))
    for i in draw(form_lists):
        den = den * forms[i]
    quotient = ring.var(0) ** draw(st.integers(1, 2))
    for i in draw(form_lists):
        quotient = quotient * forms[i]
    multiple = strip(quotient * den)
    drawn = draw(_terms(ring, st.integers(0, 1), 1))
    rest = sum((ring.monomial(e, c) for e, c in drawn.terms.items()
                if sum(e) < _low(multiple)), ring.zero)
    assume(not rest.is_zero())
    num = multiple + rest
    shift = draw(st.integers(-2, 2)) if laurent else 0
    shifted = den.shift_monomial((0, shift))
    assert try_divide(multiple, shifted) * shifted == multiple
    _, rem = sympy.div(_sympy_poly(strip(num)), _sympy_poly(den), SX, SZ, domain="QQ(q)")
    found = try_divide(num, shifted)
    assert (found is None) == (rem != 0)
    if found is not None:
        assert found * shifted == num


def test_a_quotient_term_below_the_lowest_degrees_ends_the_division(monkeypatch):
    # (x^4 + x^2) / (x + 1): quotient terms x^3, -x^2, then 2x of degree
    # 1 < lowdeg(num) - lowdeg(den) = 2; two steps instead of four.  A step
    # adds the quotient term times the 1 of x + 1 into the remainder.
    x = PLAIN.var(0)
    add_into = sparse.add_into
    steps = []

    def counted(out, key, value):
        steps.append(key)
        add_into(out, key, value)

    monkeypatch.setattr(sparse, "add_into", counted)
    assert try_divide(x ** 4 + x ** 2, x + 1) is None
    assert steps == [(3, 0), (2, 0)]
    steps.clear()
    assert try_divide(x ** 4 + x ** 3, x + 1) == x ** 3
    assert steps == [(3, 0)]
