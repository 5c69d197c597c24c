"""The sparse-term kernel: zero pruning, the order contract, truncation,
powers, and how a sparse sum prints."""

from fractions import Fraction
from functools import reduce

import pytest

from hopfgalois.catalog import QuantumBorel, RationalDifferential, build_setting
from hopfgalois.numberfield import NumberField
from hopfgalois.params import ParamField
from hopfgalois.polyring import PolyRing, RatFunc
from hopfgalois.sparse import add_into, add_terms, mul_terms, power

PF = ParamField()


def c(x):
    return PF.from_fraction(x)


class Sym:
    """A coefficient that spells out the expression it was built by."""

    def __init__(self, text):
        self.text = text

    def __add__(self, other):
        return Sym("(%s + %s)" % (self.text, other.text))

    def __mul__(self, other):
        return Sym("%s.%s" % (self.text, other.text))

    def is_zero(self):
        return self.text == "0"


def test_a_sum_that_cancels_removes_its_key():
    out = {"a": c(1), "b": c(2)}
    add_into(out, "a", c(-1))
    assert list(out) == ["b"]
    add_into(out, "z", c(0))
    assert list(out) == ["b"]
    assert list(add_terms({"a": c(1), "b": c(2)}, {"b": c(-2)})) == ["a"]
    # (x + 1)(x - 1): the two x terms cancel
    prod = mul_terms({(1,): c(1), (0,): c(1)}, {(1,): c(1), (0,): c(-1)})
    assert list(prod) == [(2,), (0,)]


def test_a_key_that_cancels_and_comes_back_goes_to_the_end():
    # the order contract: a cancelled key is deleted at once, and the term
    # that brings it back is stored as is, after every key already present
    out = {"a": c(1), "b": c(1)}
    add_into(out, "a", c(-1))
    three = c(3)
    add_into(out, "a", three)
    assert list(out) == ["b", "a"] and out["a"] is three
    # (1 + x + x^2)(1 - x + x^2): x^2 cancels after two products and
    # comes back with the third, so it lands after x^4
    a = {(0,): c(1), (1,): c(1), (2,): c(1)}
    b = {(2,): c(1), (1,): c(-1), (0,): c(1)}
    prod = mul_terms(a, b)
    assert list(prod) == [(0,), (4,), (2,)]
    assert all(v.is_one() for v in prod.values())


def test_terms_are_added_on_the_right_in_the_callers_order():
    a = {(0,): Sym("a0"), (1,): Sym("a1")}
    b = {(1,): Sym("b1"), (0,): Sym("b0")}
    prod = mul_terms(a, b)
    assert list(prod) == [(1,), (0,), (2,)]
    assert prod[(1,)].text == "(a0.b1 + a1.b0)"
    total = add_terms({"k": Sym("x"), "m": Sym("y")}, {"n": Sym("w"), "k": Sym("z")})
    assert list(total) == ["k", "m", "n"] and total["k"].text == "(x + z)"


def test_a_cap_drops_only_the_products_above_it():
    a = {(0, 0): c(1), (1, 0): c(2), (0, 2): c(3)}
    b = {(0, 0): c(5), (1, 1): c(7), (2, 0): c(-1)}
    full = mul_terms(a, b)
    capped = mul_terms(a, b, max_degree=2)
    assert sorted(capped) == sorted(e for e in full if sum(e) <= 2)
    assert all(capped[e] == full[e] for e in capped)
    assert any(sum(e) == 2 for e in capped) and any(sum(e) > 2 for e in full)
    assert mul_terms(a, b, max_degree=0) == {(0, 0): c(5)}


def test_power_zero_is_the_unit():
    one = object()
    assert power("anything", 0, one) is one


def _sample(name):
    """(x, one) for one element of each multiplicative layer."""
    if name in ("poly", "ratfunc", "param"):
        ring = PolyRing(("x", "y"), params=ParamField(("q",)))
        x, y = ring.var(0), ring.var(1)
        q = ring.params.param("q")
        return {"poly": (x * q + y - 1, ring.one),
                "ratfunc": (RatFunc(x + q, y * y - x), RatFunc(ring.one)),
                "param": (q + 2, ring.params.one)}[name]
    if name == "quantum-borel":
        S = build_setting(QuantumBorel())
        return S.inf_by_name("E") + S.from_ratfunc(S.ring.var(0)), S.one()
    S = build_setting(RationalDifferential(2, "S2"))
    return S.group_element(1) + S.inf_element(0).scale(RatFunc.of(S.ring.var(1))), S.one()


@pytest.mark.parametrize("name", ["poly", "ratfunc", "param", "quantum-borel", "s2"])
def test_power_agrees_with_repeated_products(name):
    x, one = _sample(name)
    for n in range(6):
        expected = reduce(lambda acc, _: acc * x, range(n), one)
        assert power(x, n, one) == expected, n
        assert x ** n == expected, n


@pytest.mark.parametrize("name", ["poly", "ratfunc", "param", "s2"])
def test_elements_are_unhashable(name):
    # representations are not canonical, so no hash can agree with ==
    x, _ = _sample(name)
    with pytest.raises(TypeError):
        hash(x)


# -- printing -------------------------------------------------------------------

K5 = NumberField.cyclotomic(5)
P1, P2, PK = ParamField(("q",)), ParamField(("q", "t")), ParamField(("q",), K5)
R = PolyRing(("x", "z"), laurent=(False, True), params=P1)


def _printed():
    q, t, q2 = P1.param("q"), P2.param("t"), P2.param("q")
    kq, zeta = PK.param("q"), PK.from_nf(K5.gen())
    x, z = R.var(0), R.var(1)
    half = Fraction(1, 2)
    return {
        "q": q, "-q": -q, "1 - q": 1 - q, "-q^2 + q - 1": -q ** 2 + q - 1,
        "(q + 1)/(q - 1)": (q + 1) / (q - 1), "1/(q^2 - 3q)": 1 / (q ** 2 - 3 * q),
        "-q^3/2": -half * q ** 3,
        "qt - t^2 + 1": q2 * t - t ** 2 + 1, "t - q": t - q2,
        "(qt + 1)/(q - t)": (q2 * t + 1) / (q2 - t), "q^2/2 - 3t": half * q2 ** 2 - 3 * t,
        "zeta q - 1": zeta * kq - 1, "(-1 - zeta) q^2": (-1 - zeta) * kq ** 2,
        "laurent": ((q + 1) * x ** 2 * z - x + R.monomial((0, -1), P1.from_fraction(half))
                    + R.monomial((1, -2), -q) + 3),
        "fractions": (1 / (q - 1)) * x + Fraction(2, 3) * x * z + 1 - x * x,
        "-xz - 1": -x * z - 1,
    }


@pytest.mark.parametrize("case, expected", [
    ("q", "q"),
    ("-q", "-q"),
    ("1 - q", "-q + 1"),
    ("-q^2 + q - 1", "-q^2 + q - 1"),
    ("(q + 1)/(q - 1)", "(q + 1)/(q - 1)"),
    ("1/(q^2 - 3q)", "(1)/(q^2 - 3*q)"),
    ("-q^3/2", "-1/2*q^3"),
    ("qt - t^2 + 1", "q*t - t^2 + 1"),
    ("t - q", "-q + t"),
    ("(qt + 1)/(q - t)", "(q*t + 1)/(q - t)"),
    ("q^2/2 - 3t", "1/2*q^2 - 3*t"),
    ("zeta q - 1", "(zeta)*q - 1"),
    ("(-1 - zeta) q^2", "(-1 - zeta)*q^2"),
    ("laurent", "(q + 1)*x^2*z - x + 3 - q*x*z^-2 + (1/2)*z^-1"),
    ("fractions", "-x^2 + (2/3)*x*z + ((1)/(q - 1))*x + 1"),
    ("-xz - 1", "-x*z - 1"),
])
def test_sums_print_as_pinned(case, expected):
    assert str(_printed()[case]) == expected


@pytest.mark.parametrize("coeffs, expected", [
    ((0, 1), "(zeta)"),
    ((0, -1), "(-zeta)"),
    ((1, 0, 1), "(1 + zeta^2)"),
    ((-1, 0, 0, Fraction(1, 2)), "(-1 + 1/2*zeta^3)"),
])
def test_number_field_elements_print_as_pinned(coeffs, expected):
    assert K5.to_str(K5.element(coeffs)) == expected


# -- the operators of every exact value type ------------------------------------
# Each operator is compared with the value built from +, unary -, * and inverse.

def _field_elements():
    ring = PolyRing(("x", "y"), params=ParamField(("q",)))
    x, y = ring.var(0), ring.var(1)
    q = ring.params.param("q")
    return {"param": (q * q + 2 * q - 1) * (q + 3).inverse(),
            "ratfunc": RatFunc(x * q + y, y * y - x)}


@pytest.mark.parametrize("name", ["param", "ratfunc"])
def test_field_subtraction_division_and_powers(name):
    x = _field_elements()[name]
    inv = x.inverse()
    assert 1 - x == -x + 1
    assert x - 1 == x + -1
    assert x - x == 0
    assert 1 / x == inv
    assert x / x == 1
    assert x ** -2 == inv * inv
    assert x ** 3 == x * x * x


def _poly_and_ratfunc():
    ring = PolyRing(("x", "y"), params=ParamField(("q",)))
    x, y = ring.var(0), ring.var(1)
    q = ring.params.param("q")
    p, p2 = x * q + y - 1, x * x - y
    return p, p2, RatFunc(x + q, y * y - x)


def test_poly_meets_ratfunc():
    p, p2, r = _poly_and_ratfunc()
    rp = RatFunc.of(p)
    cases = {"p + r": (p + r, rp + r), "r + p": (r + p, r + rp),
             "p - r": (p - r, rp + -r), "r - p": (r - p, r + -rp),
             "p * r": (p * r, rp * r), "p / p2": (p / p2, rp * RatFunc.of(p2).inverse())}
    for case, (got, expected) in cases.items():
        assert isinstance(got, RatFunc), case
        assert got == expected, case
    assert p == RatFunc(p * p2, p2) and RatFunc(p * p2, p2) == p
    assert not p == r and p != r


def _smash_and_coefficients():
    S = build_setting(QuantumBorel())
    ring = S.ring
    t, q = ring.var(0), ring.params.param("q")
    E = S.inf_by_name("E") + S.from_ratfunc(t)
    return S, E, {"ratfunc": RatFunc(t + q, t - 1), "poly": q * t * t + 1,
                  "int": 3, "param": q + 1}


SMASH_CASES = {
    "S - f": (lambda E, f: E - f, lambda E, F: E + -F),
    "f - S": (lambda E, f: f - E, lambda E, F: F + -E),
    "f + S": (lambda E, f: f + E, lambda E, F: F + E),
    "2 * S": (lambda E, f: 2 * E, lambda E, F: E.setting.from_const(2) * E),
    "S * f": (lambda E, f: E * f, lambda E, F: E * F),
    "f * S": (lambda E, f: f * E, lambda E, F: F * E),
}


@pytest.mark.parametrize("case", sorted(SMASH_CASES))
@pytest.mark.parametrize("kind", ["ratfunc", "poly", "int", "param"])
def test_smash_element_meets_a_coefficient(kind, case):
    S, E, coeffs = _smash_and_coefficients()
    f = coeffs[kind]
    lifted = S.from_ratfunc(f) if kind in ("ratfunc", "poly") else S.from_const(f)
    op, built = SMASH_CASES[case]
    got = op(E, f)
    assert type(got) is type(E)
    assert (got + -built(E, lifted)).is_zero()


def test_smash_product_does_not_commute_with_coefficients():
    # so S * f and f * S above are two different cases
    _, E, coeffs = _smash_and_coefficients()
    for kind in ("ratfunc", "poly"):
        f = coeffs[kind]
        assert not (E * f + -(f * E)).is_zero(), kind


def test_smash_element_has_no_division_or_inverse():
    _, E, _ = _smash_and_coefficients()
    with pytest.raises(TypeError):
        E / 2
    with pytest.raises(ValueError):
        E ** -1


def test_smash_elements_and_distributions_print_as_signed_sums():
    from hopfgalois.hcmod import DistributionVector
    from oracles import derivative_delta
    S = build_setting(QuantumBorel())
    E, t = S.inf_by_name("E"), S.from_ratfunc(S.ring.var(0))
    assert str(1 - E) == "1 - E"
    assert str(E * t) == "1 + (((1)/(q))*t)*E"
    assert str(E * E * t - 3 * t * t * E) == "(-3*t^2 + ((q + 1)/(q)))*E + (((1)/(q^2))*t)*E^2"
    assert str(S.zero()) == "0"
    S2 = build_setting(RationalDifferential(2, "S2"))
    x1, x2 = S2.ring.var(0), S2.ring.var(1)
    X = (S2.group_element(1) * S2.from_ratfunc(x1) - S2.inf_element(0, 2) * S2.inf_element(1)
         + RatFunc(x1 + 1, x2))
    assert str(X) == "((x1 + 1)/(x2)) - d1^2*d2 + x2*s1"
    ring = S2.ring
    xi = (DistributionVector.evaluation(ring, (c(1), c(0)))
          - derivative_delta(ring, (c(1), c(2)), (2, 1)))
    assert str(xi) == "delta[(1,0)] - 2*delta[(1,2);x1^2*x2]"
    assert str(DistributionVector(ring)) == "0"
