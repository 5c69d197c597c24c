"""Axiom certificates: lattice preservation, splitting, probes, determinants."""

import random

import pytest

from hopfgalois.catalog import (Cherednik, GKVHecke, OreFamily, QuantumBorel,
                                RationalDifferential, ShiftFlag, build_setting,
                                demazure_lusztig, dunkl_operator, ore_generator,
                                standard_generators)
from hopfgalois.polyring import RatFunc
from hopfgalois.smash import SmashElement
from hopfgalois.stabilizer import PointIdeal
from hopfgalois.verify import (COUNTEREXAMPLE, INCONCLUSIVE, VERIFIED,
                               OrderPresentation, fo_certificate,
                               generation_witness, max_commutative_probe,
                               normal_form_keys, preserves_lattice,
                               split_decompose, weight_fiber_witness)
from oracles import left_rank_oracle


def tsq_presentation():
    S = build_setting(OreFamily((0, 0, 1)))
    return OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0))),
                                 ("X", ore_generator(S))])


def test_preserves_lattice_tsq():
    rep = preserves_lattice(tsq_presentation(), 4)
    assert rep.status == VERIFIED
    assert rep.bounds == {"degree": 4}
    # two generators and their four ordered products
    assert rep.witness["operators"] == 2 + 2 ** 2


def test_preserves_lattice_counterexample():
    S = build_setting(OreFamily((1,)))
    bad = S.inf_element(0).scale(RatFunc(S.ring.one, S.ring.var(0)))
    pres = OrderPresentation(S, [("Y", bad)])
    rep = preserves_lattice(pres, 3)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness["monomial"] == "t"
    # the witness replays: applying the operator to the monomial leaves the lattice
    img = bad.apply(RatFunc.of(S.ring.var(0)))
    assert str(img) == rep.witness["image"]
    assert not img.is_in_lattice()


def test_preserves_lattice_counterexample_only_in_a_product():
    # t^4 and t^-1 d^4 keep every monomial of degree <= 3 polynomial, but
    # (t^-1 d^4)(t^4 * 1) = 24/t does not stay in the lattice
    S = build_setting(OreFamily((1,)))
    Y = S.from_ratfunc(S.ring.var(0) ** 4)
    Z = (S.inf_element(0) ** 4).scale(RatFunc(S.ring.one, S.ring.var(0)))
    rep = preserves_lattice(OrderPresentation(S, [("Y", Y), ("Z", Z)]), 3)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness["operator"] == "Z*Y"
    assert rep.witness["monomial"] == "1"
    img = (Z * Y).apply(RatFunc.of(S.ring.one))
    assert RatFunc(S.ring.const(24), S.ring.var(0)) == img
    assert str(img) == rep.witness["image"] == "(24)/(t)"
    assert not img.is_in_lattice()


def test_preserves_lattice_forms_no_product(monkeypatch):
    S = build_setting(Cherednik(2, "S2"))
    pres = OrderPresentation(S, standard_generators(S))

    def no_product(self, other):
        raise AssertionError("preserves_lattice multiplied two elements")

    monkeypatch.setattr(SmashElement, "__mul__", no_product)
    assert preserves_lattice(pres, 2).status == VERIFIED


def test_preserves_lattice_applies_generators_to_monomials_only(monkeypatch):
    # products X*Y are decided from X on monomials: no full X(Y(f)) is
    # computed while every X(x^e) stays in the lattice
    S = build_setting(GKVHecke("A1", "multiplicative"))
    pres = OrderPresentation(S, standard_generators(S))
    apply = SmashElement.apply

    def monomials_only(self, value):
        assert len(RatFunc.of(value).num.terms) <= 1, "applied to %s" % value
        return apply(self, value)

    monkeypatch.setattr(SmashElement, "apply", monomials_only)
    rep = preserves_lattice(pres, 3)
    assert rep.status == VERIFIED
    n = len(pres.generators)
    assert rep.witness == {"operators": n + n ** 2,
                           "monomials": len(S.ring.monomials_up_to(3, include_negative=True))}


def test_preserves_lattice_demazure():
    S = build_setting(GKVHecke("A1", "multiplicative"))
    pres = OrderPresentation(S, [("sigma1", demazure_lusztig(S, 0))])
    assert preserves_lattice(pres, 6).status == VERIFIED


def test_split_decompose():
    S = build_setting(OreFamily((1,)))
    t = S.from_ratfunc(S.ring.var(0))
    td = t * S.inf_element(0)
    head, minus = split_decompose(t + td)
    assert head == RatFunc.of(S.ring.var(0))
    assert minus == td
    assert minus.apply(RatFunc.of(S.ring.one)).is_zero()
    # lattice elements split trivially
    head, minus = split_decompose(t)
    assert head == RatFunc.of(S.ring.var(0)) and minus.is_zero()
    # idempotent in the second component
    h2, m2 = split_decompose(minus)
    assert h2.is_zero() and m2 == minus


def test_split_dunkl_kills_one():
    S = build_setting(Cherednik(2, "S2"))
    head, minus = split_decompose(dunkl_operator(S, 0))
    assert head.is_zero()
    assert minus == dunkl_operator(S, 0)


def test_split_random_elements():
    S = build_setting(Cherednik(1, "Z2"))
    rng = random.Random(9)
    pool = [S.from_ratfunc(S.ring.var(0)), S.group_element(1),
            dunkl_operator(S, 0), S.one()]
    for _ in range(50):
        x = rng.choice(pool) * rng.choice(pool) + rng.choice(pool)
        head, minus = split_decompose(x)
        assert S.from_ratfunc(head) + minus == x
        assert minus.apply(RatFunc.of(S.ring.one)).is_zero()


def test_max_commutative_probe():
    S = build_setting(OreFamily((1,)))
    rep = max_commutative_probe(S.inf_element(0), 2)
    assert rep.status == VERIFIED
    assert rep.witness["monomial"] == "t"
    with pytest.raises(ValueError):
        max_commutative_probe(S.from_ratfunc(S.ring.var(0)), 2)
    # degree 0 offers only the constant monomial, which commutes with everything
    assert max_commutative_probe(S.inf_element(0), 0).to_dict() == {
        "check": "max-commutative-probe", "status": INCONCLUSIVE,
        "witness": {}, "bounds": {"degree": 0},
        "provenance": "the lattice is maximal commutative: a non-lattice "
                      "element fails to commute with some lattice element"}


def test_max_commutative_probe_swap():
    S = build_setting(RationalDifferential(2, "S2"))
    rep = max_commutative_probe(S.group_element(1), 2)
    assert rep.status == VERIFIED
    # the graded scan hits x2 first; apply(s x2 - x2 s, 1) = x1 - x2
    assert rep.witness["monomial"] == "x2"
    assert rep.witness["commutator-at-1"] == "x1 - x2"


def test_max_commutative_probe_quantum_borel():
    S = build_setting(QuantumBorel())
    rep = max_commutative_probe(S.inf_by_name("E"), 2)
    assert rep.status == VERIFIED
    assert rep.witness["monomial"] == "t"
    assert rep.witness["commutator-at-1"] == "1"


def test_fo_certificate_weyl():
    S = build_setting(OreFamily((1,)))
    rep = fo_certificate([S.one(), S.inf_element(0)], 4)
    assert rep.status == VERIFIED
    assert rep.witness["monomials"] == ["1", "t"]
    assert rep.witness["determinant"] == "1"


def test_fo_certificate_sign_swap():
    S = build_setting(RationalDifferential(1, "Z2"))
    rep = fo_certificate([S.one(), S.group_element(1)], 4)
    assert rep.status == VERIFIED
    assert rep.witness["determinant"] == "-2*x1"


def test_fo_certificate_dependent_inconclusive():
    S = build_setting(OreFamily((1,)))
    t2 = S.from_ratfunc(S.ring.var(0) * 2)
    t = S.from_ratfunc(S.ring.var(0))
    rep = fo_certificate([t, t2], 4)
    assert rep.to_dict() == {
        "check": "fo-certificate", "status": INCONCLUSIVE,
        "witness": {"rank-reached": 1, "needed": 2}, "bounds": {"degree": 4},
        "provenance": "independent elements admit lattice points with "
                      "det(X_i(a_j)) nonzero"}
    assert left_rank_oracle([t, t2]) == 1


def test_fo_matches_rank_oracle_all_settings():
    for recipe in (QuantumBorel(), OreFamily((0, 0, 1)), Cherednik(1, "Z2"),
                   GKVHecke("A1", "multiplicative"), ShiftFlag(1, "trivial")):
        S = build_setting(recipe)
        els = [g for _, g in standard_generators(S)]
        oracle = left_rank_oracle(els)
        rep = fo_certificate(els, 4)
        if oracle == len(els):
            assert rep.status == VERIFIED, recipe
        else:
            assert rep.status == INCONCLUSIVE, recipe


def test_weight_fiber_witness():
    pres = tsq_presentation()
    S = pres.setting
    pt = PointIdeal(S.ring, (0,))
    rep = weight_fiber_witness(pres, pt)
    assert rep.status == VERIFIED
    assert rep.witness["psi(1)"] == "1"
    assert rep.witness["generators"]["X"] == "0"


def test_weight_fiber_witness_quantum_borel():
    S = build_setting(QuantumBorel())
    pres = OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0))),
                                 ("E", S.inf_by_name("E"))])
    pt = PointIdeal(S.ring, (1,))
    rep = weight_fiber_witness(pres, pt)
    assert rep.status == VERIFIED
    assert rep.witness["generators"]["E"] == "0"


def test_generation_witness_all_settings():
    from hopfgalois.catalog import TrigonometricDifferential
    for recipe in (QuantumBorel(), OreFamily((0, 0, 1)), Cherednik(1, "Z2"),
                   Cherednik(2, "S2"), GKVHecke("A1", "multiplicative"),
                   ShiftFlag(1, "trivial"),
                   TrigonometricDifferential(1, "inversion")):
        S = build_setting(recipe)
        pres = OrderPresentation(S, standard_generators(S))
        rep = generation_witness(pres, 2)
        assert rep.status == VERIFIED, S.name


def test_generation_witness_inconclusive_without_operator():
    # dropping the derivative generator leaves d unreachable
    S = build_setting(OreFamily((1,)))
    pres = OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0)))])
    rep = generation_witness(pres, 2)
    assert rep.to_dict() == {
        "check": "generation-witness", "status": INCONCLUSIVE,
        "witness": {"unreached": "d"}, "bounds": {"word-length": 2},
        "provenance": "every coideal generator is reachable as an "
                      "L-combination of order elements"}


def test_generation_witness_unreached_inside_the_word_keys():
    # X = g + d1 on Q[x1] # Z2: the words 1, X and X^2 = d1^2 + 1 carry the
    # key of g, but no L-combination of them is g alone
    S = build_setting(RationalDifferential(1, "Z2"))
    pres = OrderPresentation(S, [("X", S.group_element(1) + S.inf_element(0))])
    word_keys = set(normal_form_keys([w for _, w in pres.words(2)]))
    assert set(S.group_element(1).terms) <= word_keys
    rep = generation_witness(pres, 2)
    assert rep.status == INCONCLUSIVE
    assert rep.witness == {"unreached": "g"}
