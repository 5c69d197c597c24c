"""Reductors, stabilizer subgroups, and the fiber-finiteness predicate."""

import random

import pytest

from hopfgalois.catalog import (Cherednik, OreFamily, QuantumBorel,
                                RationalDifferential, ShiftFlag, build_setting)
from hopfgalois.stabilizer import (GrouplikeSpan, PointIdeal, Reductor,
                                   find_reductor, finiteness_predicate,
                                   fixes_point, full_group_span, moved_point,
                                   stab_group, verify_reductor)
from hopfgalois.verify import COUNTEREXAMPLE, VERIFIED


def shift_line():
    return build_setting(ShiftFlag(1, "trivial"))


def test_point_ideal_laurent_guard():
    from hopfgalois.catalog import TrigonometricDifferential
    S = build_setting(TrigonometricDifferential(1, "trivial"))
    with pytest.raises(ValueError):
        PointIdeal(S.ring, (0,))
    PointIdeal(S.ring, (1,))


def test_reductor_shift_example():
    # g: x -> x+1 on Q[x], point 0, R = 1(x)x - (x+1)(x)1
    S = shift_line()
    g = S.gp(0, (1,))
    p = PointIdeal(S.ring, (0,))
    x = S.ring.var(0)
    R = Reductor([(S.ring.one, x), (-(x + S.ring.one), S.ring.one)])
    rep = verify_reductor(R, GrouplikeSpan(S, [g]), p)
    assert rep.status == VERIFIED
    # counit value: 0 - 1 = -1
    assert rep.witness["counit"] == "-1"


def test_reductor_fails_r2_for_identity():
    S = shift_line()
    p = PointIdeal(S.ring, (0,))
    x = S.ring.var(0)
    R = Reductor([(S.ring.one, x), (-(x + S.ring.one), S.ring.one)])
    rep = verify_reductor(R, GrouplikeSpan(S, [S.gp(0)]), p)
    assert rep.to_dict() == {
        "check": "reductor", "status": COUNTEREXAMPLE,
        "witness": {"condition": "R2", "grouplike": "e", "value": "-1"},
        "bounds": {},
        "provenance": "a reductor kills the span: sum r_i (x |> s_i) = 0"}


def test_trivial_reductor_fails():
    S = shift_line()
    p = PointIdeal(S.ring, (0,))
    R = Reductor([(S.ring.one, S.ring.one)])
    rep = verify_reductor(R, GrouplikeSpan(S, [S.gp(0, (1,))]), p)
    assert rep.to_dict() == {
        "check": "reductor", "status": COUNTEREXAMPLE,
        "witness": {"condition": "R2", "grouplike": "tau(1,)", "value": "1"},
        "bounds": {},
        "provenance": "a reductor kills the span: sum r_i (x |> s_i) = 0"}


def test_reductor_fails_r1_when_counit_vanishes():
    # 1(x)1 - 1(x)1 kills every grouplike, but its counit value is 0
    S = shift_line()
    p = PointIdeal(S.ring, (0,))
    R = Reductor([(S.ring.one, S.ring.one), (-S.ring.one, S.ring.one)])
    rep = verify_reductor(R, GrouplikeSpan(S, [S.gp(0, (1,))]), p)
    assert rep.to_dict() == {
        "check": "reductor", "status": COUNTEREXAMPLE,
        "witness": {"condition": "R1", "point": "(0)"},
        "bounds": {},
        "provenance": "a reductor is invertible mod the point on both sides"}


def test_find_reductor_swap_moving_point():
    S = build_setting(RationalDifferential(2, "S2"))
    span = GrouplikeSpan(S, [S.gp(1)])
    pt = PointIdeal(S.ring, (1, 2))
    red = find_reductor(span, pt)
    assert red is not None
    assert verify_reductor(red, span, pt).status == VERIFIED


def test_find_reductor_fixed_point_none():
    S = build_setting(RationalDifferential(2, "S2"))
    span = GrouplikeSpan(S, [S.gp(1)])
    assert find_reductor(span, PointIdeal(S.ring, (1, 1))) is None


def test_product_reductor_two_shifts():
    S = shift_line()
    span = GrouplikeSpan(S, [S.gp(0, (1,)), S.gp(0, (2,))])
    pt = PointIdeal(S.ring, (0,))
    red = find_reductor(span, pt)
    assert red is not None
    assert len(red.pairs) == 4
    assert verify_reductor(red, span, pt).status == VERIFIED


def test_randomized_reductors_match_stabilizer():
    S = build_setting(ShiftFlag(2, "S2"))
    rng = random.Random(41)
    span_all = full_group_span(S, 2).members
    for _ in range(50):
        g = rng.choice(span_all)
        pt = PointIdeal(S.ring, (rng.randint(-3, 3), rng.randint(-3, 3)))
        single = GrouplikeSpan(S, [g])
        red = find_reductor(single, pt)
        if fixes_point(S, g, pt):
            assert red is None
        else:
            assert red is not None
            assert verify_reductor(red, single, pt).status == VERIFIED


def test_stab_group_examples():
    S = build_setting(RationalDifferential(2, "S2"))
    wspan = GrouplikeSpan(S, [S.gp(0), S.gp(1)])
    assert stab_group(wspan, PointIdeal(S.ring, (1, 2))).names() == ["e"]
    assert stab_group(wspan, PointIdeal(S.ring, (3, 3))).names() == ["e", "s1"]


def test_stab_group_shift_window():
    S = shift_line()
    span = GrouplikeSpan(S, [S.gp(0, (k,)) for k in range(0, 6)])
    stab = stab_group(span, PointIdeal(S.ring, (0,)))
    assert [g.mu for g in stab.members] == [(0,)]


def test_stab_group_is_a_subgroup():
    S = build_setting(ShiftFlag(2, "S2"))
    pt = PointIdeal(S.ring, (1, 2))
    stab = stab_group(full_group_span(S, 3), pt)
    members = set(stab.members)
    for a in members:
        assert S.gp_inv(a) in members
        for b in members:
            assert S.gp_mul(a, b) in members


def test_moved_point_geometry():
    S = shift_line()
    p = PointIdeal(S.ring, (0,))
    q = moved_point(S, S.gp(0, (2,)), p)
    # the shift by 2 moves the maximal ideal at 0 to the one at -2
    assert q.coords[0] == S.ring.params.from_fraction(-2)


def test_finiteness_predicate():
    S = build_setting(ShiftFlag(1, "trivial"))
    ok, why = finiteness_predicate(S, PointIdeal(S.ring, (0,)), monoid_window=4)
    assert ok and "window" in why

    R = build_setting(RationalDifferential(1, "trivial"))
    ok, why = finiteness_predicate(R, PointIdeal(R.ring, (0,)))
    assert not ok and "d1" in why

    Q = build_setting(QuantumBorel())
    ok, why = finiteness_predicate(Q, PointIdeal(Q.ring, (0,)))
    assert not ok and "E" in why

    O = build_setting(OreFamily((0, 0, 1)))
    ok, why = finiteness_predicate(O, PointIdeal(O.ring, (0,)))
    assert not ok
