"""Exact arithmetic tower: number field, parameter field, polynomials, fractions."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hopfgalois.numberfield import NumberField, ZeroDivisorError
from hopfgalois.params import ParamField
from hopfgalois.polyring import (Poly, PolyRing, RatFunc, point_label, taylor_jet,
                                 try_divide)
from hopfgalois import linalg
from oracles import constant_value


def make_ring():
    pf = ParamField(("q",))
    # x plain, z Laurent
    return PolyRing(("x", "z"), laurent=(False, True), params=pf)


# -- number field -------------------------------------------------------------


def test_cyclotomic_root_of_unity():
    nf = NumberField.cyclotomic(3)
    z = nf.gen()
    assert nf.pow(z, 3) == nf.one
    assert nf.add(nf.add(nf.mul(z, z), z), nf.one) == nf.zero


@pytest.mark.parametrize("n, coeffs", [
    (4, (1, 0, 1)),              # z^2 + 1
    (6, (1, -1, 1)),             # z^2 - z + 1
    (12, (1, 0, -1, 0, 1)),      # z^4 - z^2 + 1
])
def test_cyclotomic_minimal_polynomials(n, coeffs):
    nf = NumberField.cyclotomic(n)
    assert nf.min_poly == tuple(Fraction(c) for c in coeffs)
    z = nf.gen()
    assert [k for k in range(1, n + 1) if nf.pow(z, k) == nf.one] == [n]


def test_number_field_inverse():
    nf = NumberField.cyclotomic(5)
    z = nf.gen()
    a = nf.add(z, nf.one)
    assert nf.mul(a, nf.inv(a)) == nf.one


def test_reducible_min_poly_rejected():
    with pytest.raises(ValueError):
        NumberField((1, 0, -1, 0, 1, 1))  # has root -1


def test_zero_divisor_surfaces():
    # x^2 - 1 is reducible but has no rational root check bypass... it has
    # rational roots, so use x^4 + 4 = (x^2-2x+2)(x^2+2x+2), no rational root
    nf = NumberField((4, 0, 0, 0, 1))
    z = nf.gen()
    bad = nf.element([2, -2, 1])  # x^2 - 2x + 2, a factor
    with pytest.raises(ZeroDivisorError):
        nf.inv(bad)


# The oracle of the property below is sympy's polynomial remainder modulo
# the minimal polynomial, written out here (z for Q, z^2 + z + 1 for
# Q(zeta3)); it shares no code with numberfield.
Z = sympy.Symbol("z")
ORACLE_FIELDS = [(NumberField.rationals(), sympy.Poly(Z, Z, domain=sympy.QQ)),
                 (NumberField.cyclotomic(3), sympy.Poly(Z ** 2 + Z + 1, Z, domain=sympy.QQ))]
# integral and non-integral components, the integral ones as int and as Fraction
components = st.one_of(st.integers(-5, 5),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))


@st.composite
def field_elements(draw):
    nf, m = draw(st.sampled_from(ORACLE_FIELDS))
    a, b = (tuple(draw(st.lists(components, min_size=nf.degree, max_size=nf.degree)))
            for _ in range(2))
    return nf, m, a, b


def _sympy_element(a):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * Z ** i
                          for i, c in enumerate(a)), Z, domain=sympy.QQ)


@settings(max_examples=200, deadline=None)
@given(field_elements(), st.integers(-4, 4))
def test_number_field_matches_sympy_remainders_and_never_floats(case, n):
    nf, m, a, b = case
    A, B = _sympy_element(a), _sympy_element(b)
    checks = [(nf.add(a, b), A + B), (nf.sub(a, b), A - B), (nf.mul(a, b), A * B)]
    if any(b):
        checks += [(nf.inv(b), B.invert(m)), (nf.div(a, b), A * B.invert(m))]
    if any(a) or n >= 0:
        checks.append((nf.pow(a, n), A ** n if n >= 0 else A.invert(m) ** -n))
    for got, want in checks:
        assert all(type(c) in (int, Fraction) for c in got), got
        coeffs = want.rem(m).all_coeffs()[::-1]
        coeffs += [0] * (nf.degree - len(coeffs))
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == coeffs


def test_integral_rationals_are_stored_as_ints():
    nf = NumberField.cyclotomic(3)
    for x in (nf.zero, nf.one, nf.gen(), nf.from_fraction(Fraction(4, 2)),
              nf.element([Fraction(6, 3), 0, 1]), nf.min_poly):
        assert all(type(c) is int for c in x), x
    assert nf.from_fraction(Fraction(1, 2)) == (Fraction(1, 2), 0)


# -- parameter field -----------------------------------------------------------


def test_param_fraction_cancellation():
    pf = ParamField(("q",))
    q = pf.param("q")
    assert (q ** 2 - 1) / (q - 1) == q + 1
    assert (q * q ** -1) == pf.one
    assert ((q ** 2 - 1) / (q + 1)) * (q + 1) == q ** 2 - 1


def test_param_equality_cross_multiplied():
    pf = ParamField(("q", "t"))
    q, t = pf.param("q"), pf.param("t")
    a = (q * t + t) / t
    assert a == q + 1
    assert not (a == q)


# -- polynomial arithmetic -----------------------------------------------------


def test_difference_of_squares():
    R = make_ring()
    x = R.var(0)
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_laurent_unit_identity():
    R = make_ring()
    z = R.var(1)
    zinv = R.monomial((0, -1))
    assert z * zinv == R.one


def test_parameter_cancellation_in_coefficients():
    R = make_ring()
    q = R.params.param("q")
    x = R.var(0)
    assert (x * q) * (x * q ** -1) == x ** 2


def test_negative_exponent_needs_laurent_flag():
    R = make_ring()
    with pytest.raises(ValueError):
        R.monomial((-1, 0))


# -- rational function normalization --------------------------------------------


def test_polynomial_quotient_normalizes():
    R = make_ring()
    x = R.var(0)
    f = RatFunc(x ** 2 - 1, x - 1)
    assert f == RatFunc.of(x + 1)
    assert f.is_in_lattice()


def test_monomial_cancellation():
    R = make_ring()
    x, z = R.var(0), R.var(1)
    f = RatFunc(x * z, x)
    assert f == RatFunc.of(z)


def test_zero_numerator():
    R = make_ring()
    q = R.params.param("q")
    f = RatFunc(R.zero, R.var(0) ** 3 + R.const(q))
    assert f.is_zero()
    assert f.den == R.one


def test_lattice_membership():
    R = make_ring()
    x, z = R.var(0), R.var(1)
    assert RatFunc(x ** 2 - 1, x - 1).is_in_lattice()
    assert not RatFunc(R.one, x).is_in_lattice()
    assert RatFunc(R.one, z).is_in_lattice()  # z^-1 is allowed


def test_try_divide_complete():
    R = make_ring()
    x, z = R.var(0), R.var(1)
    num = (x ** 2 + z * x + 1) * (x - z)
    assert try_divide(num, x - z) == x ** 2 + z * x + 1
    assert try_divide(x ** 2 + 1, x - 1) is None


def test_try_divide_by_a_laurent_monomial_factor():
    # z is a unit: a positive power of it in den divides every numerator
    R = make_ring()
    x, z = R.var(0), R.var(1)
    assert try_divide(R.one, z) == z ** -1
    assert try_divide(1 + z, z) == 1 + z ** -1
    assert try_divide(x * z, (x + 1) * z ** 2) is None


# -- substitution -----------------------------------------------------------------


def test_substitute_q_dilation():
    R = make_ring()
    q = R.params.param("q")
    x = R.var(0)
    f = RatFunc.of(x ** 2)
    img = f.substitute({0: RatFunc.of(x * (q ** -1))})
    assert img == RatFunc.of(x ** 2 * (q ** -2))


def test_substitute_symmetric():
    pf = ParamField(())
    R = PolyRing(("x", "y"), params=pf)
    x, y = R.var(0), R.var(1)
    f = RatFunc.of(x + y)
    img = f.substitute({0: RatFunc.of(y), 1: RatFunc.of(x)})
    assert img == f


def test_substitute_singular_denominator():
    R = make_ring()
    x = R.var(0)
    f = RatFunc(R.one, x - 1)
    with pytest.raises(ZeroDivisionError):
        f.substitute({0: RatFunc.of(R.one)})


def test_substitute_polynomial_images_builds_no_ratfunc(monkeypatch):
    R = make_ring()
    q = R.params.param("q")
    x, z = R.var(0), R.var(1)
    f = x ** 2 * z ** -1 + z * q

    def no_ratfunc(*args, **kwargs):
        raise AssertionError("a RatFunc was built")

    monkeypatch.setattr(RatFunc, "__init__", no_ratfunc)
    img = f.substitute({0: x + q, 1: z * q})
    assert isinstance(img, Poly)
    assert img == (x + q) ** 2 * z ** -1 * q ** -1 + z * q ** 2


def test_substitute_inverts_only_units():
    R = make_ring()
    q = R.params.param("q")
    x, z = R.var(0), R.var(1)
    f = R.monomial((1, -2))
    assert f.substitute({1: z ** -1 * q}) == x * z ** 2 * q ** -2
    # z^-2 -> (z + 1)^-2, (x z)^-2 and x^-2 would leave the lattice
    for images in ({1: z + 1}, {1: RatFunc.of(z + 1)}, {1: x * z}, {1: x}):
        with pytest.raises(ValueError):
            f.substitute(images)
        with pytest.raises(ValueError):
            RatFunc.of(f).substitute(images)


def test_substitute_is_multiplicative():
    R = make_ring()
    rng = random.Random(7)
    q = R.params.param("q")
    images = {0: RatFunc.of(R.var(0) + R.const(q)), 1: RatFunc.of(R.monomial((0, -1)))}
    for _ in range(40):
        f = random_ratfunc(R, rng)
        g = random_ratfunc(R, rng)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


# -- randomized field axioms -------------------------------------------------------


def random_poly(R, rng, max_terms=3, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = (rng.randint(0, max_deg), rng.randint(-max_deg, max_deg))
        c = rng.randint(-4, 4)
        if c:
            terms[e] = R.params.from_fraction(c)
    p = R.zero
    for e, c in terms.items():
        p = p + R.monomial(e, c)
    return p


def random_ratfunc(R, rng):
    num = random_poly(R, rng)
    den = R.zero
    while den.is_zero():
        den = random_poly(R, rng, max_terms=2, max_deg=2)
    return RatFunc(num, den)


def test_field_axioms_randomized():
    R = make_ring()
    rng = random.Random(2024)
    for _ in range(500):
        a, b, c = (random_ratfunc(R, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == RatFunc.of(R.one)


def test_equality_respects_arithmetic():
    R = make_ring()
    x = R.var(0)
    a = RatFunc(x ** 2 - 1, x - 1)
    b = RatFunc.of(x + 1)
    c = RatFunc(R.one, x + 2)
    assert a == b
    assert a + c == b + c
    assert a * c == b * c


def test_lattice_closed_under_ring_ops():
    R = make_ring()
    rng = random.Random(11)
    for _ in range(100):
        a = RatFunc.of(random_poly(R, rng))
        b = RatFunc.of(random_poly(R, rng))
        assert (a + b).is_in_lattice()
        assert (a * b).is_in_lattice()


# -- jets ------------------------------------------------------------------------


def test_taylor_jet_geometric_series():
    pf = ParamField(())
    R = PolyRing(("x",), params=pf)
    x = R.var(0)
    f = RatFunc(R.one, R.one - x)
    jet = taylor_jet(f, (pf.from_fraction(0),), 4)
    for k in range(5):
        assert jet[(k,)] == pf.one
    # memoised on f per point and order: a repeat is the same jet, while
    # another order or point is expanded afresh (1/(1-x) at 2 is -1/(1+h))
    assert taylor_jet(f, (pf.from_fraction(0),), 4) is jet
    assert taylor_jet(f, (pf.from_fraction(0),), 2).order == 2
    assert taylor_jet(f, (pf.from_fraction(2),), 4)[(1,)] == pf.one


def test_taylor_jet_memo_keys_an_equal_point_by_its_print():
    pf = ParamField(())
    R = PolyRing(("x", "y"), params=pf)
    f = RatFunc(R.var(0) + R.var(1), R.one - R.var(1))
    p = (pf.from_fraction(Fraction(1, 3)), pf.from_fraction(-2))
    q = tuple(pf.from_fraction(c) for c in (Fraction(1, 3), -2))
    assert p is not q and p[0] is not q[0]
    jet = taylor_jet(f, p, 2)
    # an equal point in another tuple of other elements, with or without
    # the printed label a caller passes in, finds the same jet
    assert taylor_jet(f, q, 2) is jet
    assert taylor_jet(f, list(q), 2, point_label(q)) is jet
    assert point_label(q) == ("1/3", "-2")
    assert taylor_jet(f, (p[1], p[0]), 2) is not jet


def test_taylor_jet_at_shifted_point():
    pf = ParamField(())
    R = PolyRing(("x",), params=pf)
    x = R.var(0)
    jet = taylor_jet(RatFunc.of(x ** 2), (pf.from_fraction(3),), 3)
    assert jet[(0,)] == pf.from_fraction(9)
    assert jet[(1,)] == pf.from_fraction(6)
    assert jet[(2,)] == pf.one
    assert jet[(3,)] == pf.zero


def test_taylor_jet_laurent():
    pf = ParamField(())
    R = PolyRing(("z",), laurent=(True,), params=pf)
    jet = taylor_jet(RatFunc.of(R.monomial((-1,))), (pf.from_fraction(2),), 2)
    # 1/(2+h) = 1/2 - h/4 + h^2/8
    assert jet[(0,)] == pf.from_fraction(Fraction(1, 2))
    assert jet[(1,)] == pf.from_fraction(Fraction(-1, 4))
    assert jet[(2,)] == pf.from_fraction(Fraction(1, 8))


# (names, laurent flags) of the rings the jet oracle draws from
JET_RINGS = [(("x",), (False,)), (("x", "y"), (False, False)),
             (("x", "z"), (False, True))]
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def jet_inputs(draw):
    """(names, Laurent flags, numerator, denominator, point, order): the
    fraction as {exponents: Fraction} dicts, the point as Fractions with no
    zero at a Laurent coordinate."""
    names, laurent = JET_RINGS[draw(st.integers(0, len(JET_RINGS) - 1))]
    exps = st.tuples(*[st.integers(-2 if l else 0, 2) for l in laurent])
    terms = st.dictionaries(exps, small_fractions.filter(bool), max_size=3)
    num = draw(terms)
    den = draw(terms.filter(bool))
    point = tuple(draw(small_fractions.filter(bool) if l else small_fractions) for l in laurent)
    return names, laurent, num, den, point, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(jet_inputs())
def test_taylor_jet_matches_sympy_derivatives(data):
    # every coefficient a of the jet at p is d^a f(p) / a!, by sympy
    names, laurent, num, den, point, order = data
    syms = sympy.symbols(names)
    at = dict(zip(syms, (sympy.Rational(c.numerator, c.denominator) for c in point)))

    def to_sympy(terms):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(v ** e for v, e in zip(syms, a)))
                    for a, c in terms.items()), sympy.Integer(0))

    f = to_sympy(num) / to_sympy(den)
    assume(to_sympy(den).subs(at) != 0)
    pf = ParamField(())
    R = PolyRing(names, laurent=laurent, params=pf)

    def to_poly(terms):
        return sum((R.monomial(a, pf.from_fraction(c)) for a, c in terms.items()), R.zero)

    jet = taylor_jet(RatFunc(to_poly(num), to_poly(den)),
                     tuple(pf.from_fraction(c) for c in point), order)
    for a in R.monomials_up_to(order):
        d = f
        for v, k in zip(syms, a):
            d = sympy.diff(d, v, k)
        expect = d.subs(at) / sympy.Mul(*(sympy.factorial(k) for k in a))
        (got,) = constant_value(jet[a])
        assert Fraction(got) == Fraction(int(expect.p), int(expect.q)), (a, f, point)


# -- exact linear algebra ------------------------------------------------------------


def test_linalg_rank_det_solve():
    pf = ParamField(("q",))
    q = pf.param("q")
    one = pf.one
    m = [[one, q], [q, q * q]]
    assert linalg.rank(m) == 1
    m2 = [[one, q], [q, one]]
    assert linalg.det(m2) == one - q * q
    (sol,) = linalg.solve(m2, [[one + q, one + q]])
    assert sol is not None
    lhs = [m2[i][0] * sol[0] + m2[i][1] * sol[1] for i in range(2)]
    assert lhs[0] == one + q and lhs[1] == one + q
    kern = linalg.nullspace(m)
    assert len(kern) == 1
    v = kern[0]
    assert (m[0][0] * v[0] + m[0][1] * v[1]).is_zero()
