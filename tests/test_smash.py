"""Normal-form engine: cross relations, the hat map, and normal forms."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfgalois.catalog import (Cherednik, GKVHecke, OreFamily, QuantumBorel,
                                RationalDifferential, ShiftFlag, build_setting,
                                dunkl_operator, quantum_borel_E)
from hopfgalois.polyring import Poly, PolyRing, RatFunc
from hopfgalois.smash import Setting, SmashElement
from hopfgalois.sparse import add_into
from hopfgalois.stabilizer import full_group_span
from oracles import expand_right_form, right_normal_form


def weyl():
    return build_setting(OreFamily((1,)))


def swap_setting():
    return build_setting(RationalDifferential(2, "S2"))


# -- multiplication -----------------------------------------------------------


def test_quantum_weyl_cross_relation():
    S = build_setting(QuantumBorel())
    E = quantum_borel_E(S)
    t = S.from_ratfunc(S.ring.var(0))
    q = S.meta["q"]
    rhs = S.one() + (t * E).scale(RatFunc.of(S.ring.const(q ** -1)))
    assert E * t == rhs


def test_leibniz_cross_relation():
    S = weyl()
    d = S.inf_element(0)
    x = S.from_ratfunc(S.ring.var(0))
    assert d * x == S.one() + x * d


def test_grouplike_substitution_cross_relation():
    S = swap_setting()
    s = S.group_element(1)
    x1 = S.from_ratfunc(S.ring.var(0))
    x2 = S.from_ratfunc(S.ring.var(1))
    assert s * x1 == x2 * s


def test_group_part_acts_by_one_substitution(monkeypatch):
    # (w, mu) |> f is w after mu, one substitution x_v -> (w |> x_v) + mu_v,
    # and on a lattice element it is lattice arithmetic only
    S = build_setting(ShiftFlag(2, "S2"))
    x1, x2 = S.ring.var(0), S.ring.var(1)
    polys = [x1, x1 ** 2 * x2 + 3, x1 * x2 - x2 ** 3]
    span = full_group_span(S, 1).members
    two_passes = [[S.gp_act(S.gp(a.w), S.gp_act(S.gp(0, a.mu), f)) for f in polys]
                  for a in span]
    L = build_setting(GKVHecke("A1"))
    z = L.ring.var(0)

    def no_ratfunc(*args, **kwargs):
        raise AssertionError("a RatFunc was built")

    monkeypatch.setattr(RatFunc, "__init__", no_ratfunc)
    for a, expected in zip(span, two_passes):
        assert [S.gp_act(a, f) for f in polys] == expected
    acted = L.gp_act(L.gp(1), z ** 2 + z ** -1)  # s1: z -> z^-1
    assert isinstance(acted, Poly) and acted == z ** -2 + z


def test_iterated_skew_relation():
    # E^2 t = (1 + q^-1) E + q^-2 t E^2, by applying the cross relation twice
    S = build_setting(QuantumBorel())
    E = quantum_borel_E(S)
    t = S.from_ratfunc(S.ring.var(0))
    q = S.meta["q"]
    lhs = E * E * t
    rhs = E.scale(RatFunc.of(S.ring.const(S.ring.params.one + q ** -1))) + \
        (t * E * E).scale(RatFunc.of(S.ring.const(q ** -2)))
    assert lhs == rhs


def test_mul_associative_randomized():
    S = swap_setting()
    rng = random.Random(5)
    pool = [S.from_ratfunc(S.ring.var(0)), S.from_ratfunc(S.ring.var(1)),
            S.group_element(1), S.inf_element(0), S.inf_element(1), S.one()]

    def rand_elem():
        a = rng.choice(pool)
        b = rng.choice(pool)
        c = rng.randint(-2, 2)
        return a * b + rng.choice(pool).scale(
            RatFunc.of(S.ring.const(S.ring.params.from_fraction(c))))

    for _ in range(40):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


# Small random elements of Cherednik S2 (Dunkl operators, coefficients over
# the root form x1 - x2 and x1 + x2) and rational-differential S2: sums of
# two-letter words scaled by a coefficient.  The product, InfGenerator.act
# and apply all run over factored denominators here.
ORACLE_SETTINGS = [build_setting(Cherednik(2, "S2")), swap_setting()]


@st.composite
def smash_cases(draw):
    S = draw(st.sampled_from(ORACLE_SETTINGS))
    ring = S.ring
    x1, x2 = ring.var(0), ring.var(1)
    letters = [S.group_element(1), S.inf_element(0), S.inf_element(1),
               S.from_ratfunc(x1)]
    if S.meta.get("reflections"):
        letters += [dunkl_operator(S, 0), dunkl_operator(S, 1)]
    coeffs = [RatFunc.of(ring.one), RatFunc.of(x2 - 1), RatFunc(ring.one, x1 - x2),
              RatFunc(x1, x1 + x2)]
    words = st.tuples(st.sampled_from(letters), st.sampled_from(letters),
                      st.sampled_from(coeffs))

    def element():
        return sum(((u * v).scale(c) for u, v, c in draw(st.lists(words, min_size=1,
                                                                   max_size=2))),
                   S.zero())
    f = RatFunc.of(ring.monomial(draw(st.sampled_from(ring.monomials_up_to(2)))))
    return element(), element(), element(), f


@settings(max_examples=25, deadline=None)
@given(smash_cases())
def test_products_associate_and_act_multiplicatively(case):
    a, b, c, f = case
    ab = a * b
    assert ab * c == a * (b * c)
    assert ab.apply(f) == a.apply(b.apply(f))


def _reference_product(x, y):
    # the plain pair loop: every push, group image and coefficient product is
    # formed afresh for each pair of terms, with no memo and no skipped unit
    S = x.setting
    out = {}
    for (g1, a1), f1 in x.terms.items():
        for (g2, a2), f2 in y.terms.items():
            for beta, c in x._push_left(a1, f2).items():
                conj = S.conj_monomial(S.group_inv[g2.w], beta)
                img = c if S.gp_is_identity(g1) else c.substitute(S.gp_images(g1))
                coeff_base = f1 * img
                if coeff_base.is_zero():
                    continue
                g = S.gp_mul(g1, g2)
                for gamma, e in conj.items():
                    add_into(out, (g, tuple(u + v for u, v in zip(gamma, a2))),
                             coeff_base * e)
    return SmashElement(S, out, _clean=True)


def _items(el):
    # every dict of the element in its stored order, down to the parameters
    def poly(p):
        return [(e, list(c.num.items()), list(c.den.items())) for e, c in p.terms.items()]
    return [(k, poly(c.num), poly(c.den)) for k, c in el.terms.items()]


# Cherednik Z2 and rational-differential Z3 have conjugation coefficients
# other than 1 (-1, and zeta3 over Q(zeta3)); quantum-borel has a twisted
# generator, shift-flag S2 shift parts and GKV A2 Laurent variables.
PRODUCT_RECIPES = [Cherednik(3, "S3"), Cherednik(1, "Z2"), RationalDifferential(1, "Z3"),
                   QuantumBorel(), ShiftFlag(2, "S2"), GKVHecke("A2", "multiplicative")]


@pytest.mark.parametrize("recipe", PRODUCT_RECIPES, ids=lambda r: type(r).__name__)
def test_product_matches_the_plain_pair_loop(recipe):
    S = build_setting(recipe)
    ring = S.ring
    rng = random.Random(31)
    xs = [RatFunc.of(ring.var(v)) for v in range(ring.nvars)]
    one = RatFunc.of(ring.one)
    coeffs = [one, one, -one, one * 2] + xs + [x * x - x + 3 for x in xs] + \
        [one / (x + 2) for x in xs] + [(x + 1) / (xs[-1] - 3) for x in xs]
    if ring.params.names:
        coeffs.append(one * ring.params.param(ring.params.names[0]))
    pool = [S.one()] + [S.from_ratfunc(x) for x in xs] + \
        [S.group_element(w) for w in range(1, S.group_size)] + \
        [S.inf_element(g) for g in range(len(S.inf_gens))] + \
        [S.group_element(S.group_size - 1) * S.inf_element(g, 2)
         for g in range(len(S.inf_gens))] + [op for _, op in recipe.operators(S)]
    if S.monoid_rank:
        pool.append(S.group_element(1, (1, -1)))

    def element():
        return sum((rng.choice(pool).scale(rng.choice(coeffs))
                    for _ in range(rng.randint(1, 3))), S.zero())

    for _ in range(20):
        x, y = element(), element()
        product, reference = x * y, _reference_product(x, y)
        assert str(product) == str(reference)
        assert _items(product) == _items(reference)


# -- equality -------------------------------------------------------------------


def test_equality_compares_coefficients_not_their_printing():
    S = build_setting(RationalDifferential(3, "S3"))
    x1, x2, x3 = (RatFunc.of(S.ring.var(v)) for v in range(3))
    s = S.group_element(1)
    unreduced = RatFunc((x1.num + x2.num) * (x1.num - x2.num),
                        (x1.num - x2.num) * (x1.num - x3.num))
    reduced = (x1 + x2) / (x1 - x3)
    assert str(unreduced) != str(reduced)
    a = s.scale(unreduced) + S.inf_element(0)
    b = S.inf_element(0) + s.scale(reduced)
    assert a == b and b == a
    assert a != s.scale(reduced)  # a key of a missing from the other side
    assert s.scale(reduced) != a
    assert a != a + S.group_element(2).scale(x1)  # a key only on the right
    assert s.scale(reduced) != S.group_element(2).scale(reduced)  # as many keys
    # equal keys, one coefficient off
    assert a != s.scale(reduced) + S.inf_element(0).scale(x2)
    # a RatFunc, a Poly or a constant is compared through _coerce
    assert S.from_ratfunc(unreduced) == reduced
    assert S.from_ratfunc(unreduced) != x1
    assert S.from_ratfunc(x1) == S.ring.var(0)
    assert S.from_const(3) == 3 and S.one() == 1 and S.zero() == 0
    assert S.one() != 2


# -- the group-image memo ----------------------------------------------------------


def test_group_image_is_substituted_once_per_value_and_setting(monkeypatch):
    ring = PolyRing(("x1", "x2"))
    x1, x2 = ring.var(0), ring.var(1)
    table = dict(group_mult=[[0, 1], [1, 0]], group_inv=[0, 1], group_names=["e", "s"])
    swap = Setting(ring, group_subs=[{}, {0: x2, 1: x1}], **table)
    negate = Setting(ring, group_subs=[{}, {0: -x1}], **table)
    calls = []
    substitute = Poly.substitute

    def counted(self, images):
        calls.append(self)
        return substitute(self, images)

    monkeypatch.setattr(Poly, "substitute", counted)
    f = x1 + x2 * 2
    s = swap.gp(1)
    assert swap.gp_act(s, f) is swap.gp_act(s, f) and len(calls) == 1
    assert swap.gp_act(swap.identity_gp(), f) is f and len(calls) == 1
    # the same value and group part under a setting sharing the ring
    assert negate.gp(1) == s
    assert negate.gp_act(s, f) == -x1 + x2 * 2 and len(calls) == 2
    assert swap.gp_act(s, f) == x2 + x1 * 2 and len(calls) == 2
    # a RatFunc substitutes its numerator and its denominator, once
    r = RatFunc(f, x1 + 1)
    assert swap.gp_act(s, r) == swap.gp_act(s, r) and len(calls) == 4
    # an equal but distinct value has no image yet
    assert swap.gp_act(s, x1 + x2 * 2) == x2 + x1 * 2 and len(calls) == 5


# -- the hat map ---------------------------------------------------------------


def test_apply_skew_difference_quotient():
    # E f(t) = (f(t) - f(q^-1 t)) / (t - q^-1 t), checked on f = t^2
    S = build_setting(QuantumBorel())
    E = quantum_borel_E(S)
    q = S.meta["q"]
    t = RatFunc.of(S.ring.var(0))
    f = t ** 2
    direct = E.apply(f)
    oracle = (f - f.substitute({0: t * (q ** -1)})) / (t - t * (q ** -1))
    assert direct == oracle
    assert direct == t * (S.ring.params.one + q ** -1)


def test_apply_identity():
    S = swap_setting()
    f = RatFunc.of(S.ring.var(0) ** 3 + S.ring.var(1))
    assert S.one().apply(f) == f


def test_apply_dunkl_at_x():
    S = build_setting(Cherednik(1, "Z2"))
    D = dunkl_operator(S, 0)
    pf = S.ring.params
    img = D.apply(RatFunc.of(S.ring.var(0)))
    assert img == RatFunc.of(S.ring.const(pf.param("t") - 2 * pf.param("c")))


def test_representation_property_randomized():
    # apply(XY, f) = apply(X, apply(Y, f)) on 200 random pairs
    S = swap_setting()
    rng = random.Random(17)
    pool = [S.from_ratfunc(S.ring.var(0)), S.group_element(1),
            S.inf_element(0), S.inf_element(1)]
    monos = S.ring.monomials_up_to(3)
    for _ in range(200):
        x = rng.choice(pool) * rng.choice(pool)
        y = rng.choice(pool) + rng.choice(pool)
        f = RatFunc.of(S.ring.monomial(rng.choice(monos)))
        assert (x * y).apply(f) == x.apply(y.apply(f))


def test_cherednik_s3_product_keeps_nested_denominators_small():
    # trial 12 of the representation check on Cherednik S3.  The Dunkl
    # coefficients are over products of root forms x_i - x_j; summed over
    # the lcm of their factors, no denominator of X*Y has more than 43 terms
    # (82 over the larger of two nested ones, 466 over their products)
    S = build_setting(Cherednik(3, "S3"))
    x1, x2 = S.ring.var(0), S.ring.var(1)
    D1, D2 = dunkl_operator(S, 0), dunkl_operator(S, 1)
    assert S.group_names[3] == "s1*s2"
    x = S.group_element(3) + D1.scale(RatFunc.of(x2 ** 2))
    y = D2 * D1
    f = RatFunc.of(x1 ** 2 * x2)
    xy = x * y
    assert len(xy.terms) == 28
    assert max(len(c.den.terms) for c in xy.terms.values()) <= 43
    assert xy.apply(f) == x.apply(y.apply(f))


def test_cherednik_s3_identities_sum_over_small_denominators(monkeypatch):
    # [D_i, D_j] = 0 sums fractions over products of root forms that share
    # factors; over the lcm no sum's denominator has degree above 5 (over
    # the product of two unnested denominators, 8)
    S = build_setting(Cherednik(3, "S3"))
    add = RatFunc.__add__
    degrees = []

    def recorded(a, b):
        total = add(a, b)
        degrees.append(max(map(sum, total.den.terms)))
        return total

    monkeypatch.setattr(RatFunc, "__add__", recorded)
    reports = S.recipe.identities(S)
    monkeypatch.undo()
    assert [r.status for r in reports] == ["verified"]
    assert degrees and max(degrees) <= 5


def test_apply_sums_by_denominator():
    # six terms over two denominators, in the order A, A, B, B, A, A: summed
    # by denominator the image is over A*B (term by term, over A^3*B^2)
    S = swap_setting()
    x, y = S.ring.var(0), S.ring.var(1)
    A, B = x + 1, y + 2
    words = [S.one(), S.group_element(1), S.inf_element(0),
             S.group_element(1) * S.inf_element(0), S.inf_element(1),
             S.group_element(1) * S.inf_element(1)]
    el = S.zero()
    for k, (word, den) in enumerate(zip(words, [A, A, B, B, A, A])):
        el = el + word.scale(RatFunc(x + k, den))
    assert len(el.terms) == 6
    f = RatFunc.of(x ** 2 * y ** 2)
    image = el.apply(f)
    term_sum = RatFunc.of(S.ring.zero)
    for (g, alpha), c in el.terms.items():
        cur = f
        for j, k in enumerate(alpha):
            for _ in range(k):
                cur = S.inf_gens[j].act(cur)
        term_sum = term_sum + c * S.gp_act(g, cur)
    assert image == term_sum
    assert image.den == A * B


# GKV-Hecke A1: z1 Laurent, parameter q, s1 sends z1 to z1^-1.  The
# coefficients are drawn over three fixed denominators, so terms share them;
# each value is given in the package and in sympy.
HECKE = build_setting(GKVHecke("A1", "multiplicative"))
HZ = RatFunc.of(HECKE.ring.var(0))
HQ = HECKE.ring.params.param("q")
SZ, SQ = sympy.symbols("z q")
HECKE_SCALARS = [(-2, -2), (-1, -1), (1, 1), (3, 3), (HQ, SQ)]
HECKE_DENS = [(HZ * HZ - 1, SZ ** 2 - 1), (HZ + HQ, SZ + SQ),
              (HZ * HZ * HQ + 1, SQ * SZ ** 2 + 1)]


def _sympy_param(c):
    def poly(d):
        return sum(sympy.Rational(v.numerator, v.denominator) * SQ ** k
                   for (k,), (v,) in d.items())
    return poly(c.num) / poly(c.den)


def _sympy_ratfunc(r):
    def poly(p):
        return sum((_sympy_param(c) * SZ ** k for (k,), c in p.terms.items()),
                   sympy.Integer(0))
    return poly(r.num) / poly(r.den)


hecke_terms = st.lists(
    st.tuples(st.sampled_from([0, 1]), st.sampled_from(HECKE_DENS),
              st.dictionaries(st.integers(-2, 2), st.sampled_from(HECKE_SCALARS),
                              min_size=1, max_size=3)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(hecke_terms, st.integers(-3, 3))
def test_grouped_apply_matches_term_sum_and_sympy(terms, k):
    S = HECKE
    el = S.zero()
    oracle = sympy.Integer(0)
    for w, (den, sden), num in terms:
        numer = sum((HZ ** e * c for e, (c, _) in num.items()), RatFunc.of(S.ring.zero))
        el = el + S.group_element(w).scale(numer / den)
        snumer = sum(sc * SZ ** e for e, (_, sc) in num.items())
        oracle += snumer / sden * SZ ** (-k if w else k)
    f = RatFunc.of(S.ring.monomial((k,)))
    image = el.apply(f)
    term_sum = RatFunc.of(S.ring.zero)
    for (g, _), c in el.terms.items():
        term_sum = term_sum + c * S.gp_act(g, f)
    assert image == term_sum
    assert sympy.cancel(_sympy_ratfunc(image) - oracle) == 0


# -- right normal form -----------------------------------------------------------


def test_right_normal_form_weyl():
    # x d = d x - 1
    S = weyl()
    d = S.inf_element(0)
    x = S.from_ratfunc(S.ring.var(0))
    terms = right_normal_form(x * d)
    assert len(terms) == 2
    by_alpha = {beta: c for _, beta, c in terms}
    assert by_alpha[(0,)] == RatFunc.of(-S.ring.one)
    assert by_alpha[(1,)] == RatFunc.of(S.ring.var(0))


def test_right_normal_form_grouplike():
    # f g = g (g^-1 f): coefficient transported by the inverse substitution
    S = swap_setting()
    s = S.group_element(1)
    f = RatFunc.of(S.ring.var(0) ** 2)
    terms = right_normal_form(S.from_ratfunc(f) * s)
    assert len(terms) == 1
    gp, beta, c = terms[0]
    assert gp.w == 1 and not any(beta)
    assert c == RatFunc.of(S.ring.var(1) ** 2)


def test_right_normal_form_quantum_borel():
    # t E = E (q t) - q
    S = build_setting(QuantumBorel())
    E = quantum_borel_E(S)
    t = S.from_ratfunc(S.ring.var(0))
    q = S.meta["q"]
    terms = right_normal_form(t * E, {"E": {0: S.ring.var(0) * q}})
    by_alpha = {beta: c for _, beta, c in terms}
    assert by_alpha[(1,)] == RatFunc.of(S.ring.var(0) * q)
    assert by_alpha[(0,)] == RatFunc.of(-S.ring.const(q))


def test_right_normal_form_round_trip_randomized():
    S = build_setting(Cherednik(2, "S2"))
    rng = random.Random(23)
    D = [dunkl_operator(S, i) for i in range(2)]
    pool = [S.from_ratfunc(S.ring.var(0)), S.group_element(1), D[0], D[1]]
    for _ in range(25):
        x = rng.choice(pool) * rng.choice(pool) + rng.choice(pool)
        assert expand_right_form(S, right_normal_form(x)) == x


# -- filtration degree -------------------------------------------------------------


def test_filtration_degrees():
    S = build_setting(Cherednik(2, "S2"))
    f_w = S.from_ratfunc(S.ring.var(0)) * S.group_element(1)
    assert f_w.filtration_degree() == 0
    assert dunkl_operator(S, 0).filtration_degree() == 1
    QB = build_setting(QuantumBorel())
    E = quantum_borel_E(QB)
    assert (E ** 3).filtration_degree() == 3
    with pytest.raises(ValueError):
        QB.zero().filtration_degree()


def test_filtration_subadditive():
    S = build_setting(Cherednik(2, "S2"))
    rng = random.Random(3)
    D = [dunkl_operator(S, i) for i in range(2)]
    pool = [S.from_ratfunc(S.ring.var(0)), S.group_element(1), D[0], D[1]]
    for _ in range(30):
        x = rng.choice(pool) * rng.choice(pool)
        y = rng.choice(pool)
        if x.is_zero() or y.is_zero() or (x * y).is_zero():
            continue
        assert (x * y).filtration_degree() <= \
            x.filtration_degree() + y.filtration_degree()


# -- conjugation ----------------------------------------------------------------------


def test_conjugation_relabels_euler_term():
    S = swap_setting()
    x1d1 = S.from_ratfunc(S.ring.var(0)) * S.inf_element(0)
    x2d2 = S.from_ratfunc(S.ring.var(1)) * S.inf_element(1)
    assert x1d1.conjugate_by(S.gp(1)) == x2d2
    assert x1d1.conjugate_by(S.identity_gp()) == x1d1


def test_conjugation_covariance_of_dunkl():
    # s D_y s^-1 = D_{s(y)}, also as operators on polynomials of degree <= 4
    S = build_setting(Cherednik(2, "S2"))
    D1, D2 = dunkl_operator(S, 0), dunkl_operator(S, 1)
    conj = D1.conjugate_by(S.gp(1))
    assert conj == D2
    for exps in S.ring.monomials_up_to(4):
        f = RatFunc.of(S.ring.monomial(exps))
        assert conj.apply(f) == D2.apply(f)


def test_validate_checks_every_group_pair():
    # S4 has 576 pairs; break one far from both ends of the table
    S = build_setting(RationalDifferential(4, "S4"))
    i, j = 11, 13
    assert S.group_inv[i] != j and S.group_mult[i][j] != 1
    S.group_mult[i][j] = 1
    with pytest.raises(ValueError, match="not a homomorphism"):
        S.validate()


def test_cross_setting_operations_rejected():
    A = build_setting(OreFamily((1,)))
    B = build_setting(OreFamily((0, 1)))
    with pytest.raises(ValueError):
        A.one() * B.one()


def test_cross_registry_polynomials_rejected():
    from hopfgalois.params import ParamField
    from hopfgalois.polyring import PolyRing
    R1 = PolyRing(("x",), params=ParamField(()))
    R2 = PolyRing(("y",), params=ParamField(()))
    with pytest.raises(ValueError):
        R1.var(0) + R2.var(0)
    with pytest.raises(ValueError):
        R1.var(0) * R2.var(0)
