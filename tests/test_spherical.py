"""Idempotent, symmetrization, the centralizer map, and Morita witnesses."""

import json
import random
import tracemalloc
from pathlib import Path

import pytest

from hopfgalois import linalg, polyring, spherical
from hopfgalois.catalog import (Cherednik, GKVHecke, RationalDifferential,
                                build_setting, dunkl_operator,
                                standard_generators)
from hopfgalois.cli import parse_recipe
from hopfgalois.polyring import RatFunc, try_divide
from hopfgalois.spherical import (idempotent, invariant_basis, is_invariant,
                                  morita_witness, psi, reynolds,
                                  spherical_axiom_check, symmetrize)
from hopfgalois.verify import (COUNTEREXAMPLE, INCONCLUSIVE, VERIFIED,
                               OrderPresentation)
from oracles import morita_rows_oracle


def sign_setting():
    return build_setting(RationalDifferential(1, "Z2"))


def swap_setting():
    return build_setting(RationalDifferential(2, "S2"))


def test_idempotent_properties():
    for S in (sign_setting(), swap_setting(),
              build_setting(Cherednik(3, "S3"))):
        e = idempotent(S)
        assert e * e == e
        for w in range(S.group_size):
            assert S.group_element(w) * e == e
            assert e * S.group_element(w) == e


def test_trivial_group_idempotent_is_one():
    S = build_setting(RationalDifferential(1, "trivial"))
    assert idempotent(S) == S.one()


def test_symmetrize_examples():
    S = swap_setting()
    x1 = S.from_ratfunc(S.ring.var(0))
    half = RatFunc.of(S.ring.const(S.ring.params.from_fraction("1/2")))
    assert symmetrize(x1) == S.from_ratfunc(
        (S.ring.var(0) + S.ring.var(1))).scale(half)
    x1d1 = x1 * S.inf_element(0)
    x2d2 = S.from_ratfunc(S.ring.var(1)) * S.inf_element(1)
    assert symmetrize(x1d1) == (x1d1 + x2d2).scale(half)
    # invariants are fixed
    inv = x1d1 + x2d2
    assert symmetrize(inv) == inv
    assert is_invariant(symmetrize(x1 * x1))


def test_psi_basics():
    S = swap_setting()
    e = idempotent(S)
    assert psi(S.one()) == e
    xy = S.from_ratfunc(S.ring.var(0) + S.ring.var(1))
    assert psi(xy) == e * xy * e
    assert psi(xy * xy) == psi(xy) * psi(xy)
    with pytest.raises(ValueError):
        psi(S.from_ratfunc(S.ring.var(0)))


def test_psi_multiplicative_randomized():
    S = sign_setting()
    rng = random.Random(77)
    x = S.from_ratfunc(S.ring.var(0))
    d = S.inf_element(0)
    s = S.group_element(1)
    pool = [x, d, s, S.one()]
    for _ in range(100):
        a = symmetrize(rng.choice(pool) * rng.choice(pool))
        b = symmetrize(rng.choice(pool) * rng.choice(pool) + rng.choice(pool))
        assert psi(a * b) == psi(a) * psi(b)


def test_psi_injectivity_witness():
    # psi(X) = 0 forces X to kill every invariant polynomial slice
    S = sign_setting()
    x = S.from_ratfunc(S.ring.var(0))
    d = S.inf_element(0)
    candidates = [symmetrize(x * d), symmetrize(d * d), symmetrize(x * x)]
    for X in candidates:
        if psi(X).is_zero():
            for f in invariant_basis(S, 6):
                assert X.apply(RatFunc.of(f)).is_zero()
        else:
            assert not X.is_zero()


def test_reynolds_invariant_basis():
    S = swap_setting()
    basis = invariant_basis(S, 3)
    for f in basis:
        for w in range(S.group_size):
            assert S.gp_act(S.gp(w), RatFunc.of(f)) == RatFunc.of(f)
    # power sums of degree <= 3 appear up to scale
    names = {str(f) for f in basis}
    assert "1" in names


def test_spherical_axiom_symmetrized_dunkl():
    S = build_setting(Cherednik(1, "Z2"))
    D = dunkl_operator(S, 0)
    rep = spherical_axiom_check([("D^2", D * D)], S, 6)
    assert rep.status == VERIFIED


def test_spherical_axiom_counterexample():
    S = swap_setting()
    x1d1 = S.from_ratfunc(S.ring.var(0)) * S.inf_element(0)
    rep = spherical_axiom_check([("x1*d1", x1d1)], S, 4)
    assert rep.to_dict() == {
        "check": "spherical-axiom", "status": COUNTEREXAMPLE,
        "witness": {"generator": "x1*d1", "input": "(1/2)*x1 + (1/2)*x2",
                    "image": "(1/2)*x1", "reason": "image not group-fixed"},
        "bounds": {"degree": 4},
        "provenance": "spherical generators keep invariants invariant"}
    # an invariant operator whose image of 1 leaves the lattice
    inv = S.from_ratfunc(RatFunc(S.ring.one, S.ring.var(0) * S.ring.var(1)))
    rep = spherical_axiom_check([("1/(x1*x2)", inv)], S, 4)
    assert rep.to_dict() == {
        "check": "spherical-axiom", "status": COUNTEREXAMPLE,
        "witness": {"generator": "1/(x1*x2)", "input": "1",
                    "image": "(1)/(x1*x2)", "reason": "image not in lattice"},
        "bounds": {"degree": 4},
        "provenance": "spherical generators keep invariants invariant"}


def test_spherical_axiom_lattice_slice():
    # e L^W e generators: invariant multiplication operators always pass
    S = swap_setting()
    inv = S.from_ratfunc(S.ring.var(0) * S.ring.var(1))
    rep = spherical_axiom_check([("x1x2", inv)], S, 4)
    assert rep.status == VERIFIED


def test_morita_witness_sign_action():
    S = sign_setting()
    pres = OrderPresentation(S, [("x", S.from_ratfunc(S.ring.var(0))),
                                 ("d", S.inf_element(0)),
                                 ("s", S.group_element(1))])
    rep = morita_witness(pres, 2)
    assert rep.status == VERIFIED
    combo = rep.witness["combination"]
    assert len(combo) >= 2


def test_morita_witness_trivial_group():
    S = build_setting(RationalDifferential(1, "trivial"))
    pres = OrderPresentation(S, [("x", S.from_ratfunc(S.ring.var(0)))])
    rep = morita_witness(pres, 1)
    assert rep.status == VERIFIED


def test_morita_inconclusive_for_group_ring_alone():
    S = sign_setting()
    pres = OrderPresentation(S, [("x", S.from_ratfunc(S.ring.var(0))),
                                 ("s", S.group_element(1))])
    rep = morita_witness(pres, 2)
    assert rep.to_dict() == {
        "check": "morita-witness", "status": INCONCLUSIVE,
        "witness": {"words": 7}, "bounds": {"word-length": 2},
        "provenance": "1 in F e F makes the order Morita equivalent to its "
                      "centralizer"}


def test_psi_image_of_lattice_preserving_invariant_preserves_lattice():
    # eXe applied to polynomials stays polynomial when X does
    S = build_setting(Cherednik(1, "Z2"))
    D = dunkl_operator(S, 0)
    for X in (symmetrize(D * D), S.from_ratfunc(S.ring.var(0) ** 2)):
        img = psi(X)
        for exps in S.ring.monomials_up_to(5):
            assert img.apply(RatFunc.of(S.ring.monomial(exps))).is_in_lattice()


def brute_force_morita(presentation, word_length):
    """The Morita witness from all |words|^2 products A_i e B_j, repeats and
    zeros included, each key's coefficients cleared over an lcm-like
    denominator: (status, witness) as ``morita_witness`` reports them."""
    S = presentation.setting
    ring = S.ring
    zero = ring.params.zero
    e = idempotent(S)
    words = presentation.words(word_length)
    products = [(an, bn, a * e * b) for an, a in words for bn, b in words]
    columns = [p for _, _, p in products] + [S.one()]
    rows = {}
    for key in {k for p in columns for k in p.terms}:
        coeffs = [p.terms.get(key) for p in columns]
        den = ring.one
        for c in coeffs:
            if c is not None and try_divide(den, c.den) is None:
                den = den * c.den
        for j, c in enumerate(coeffs):
            if c is None or c.is_zero():
                continue
            for exps, coeff in (c.num * try_divide(den, c.den)).terms.items():
                row = rows.setdefault((key, exps), [zero] * len(columns))
                row[j] = row[j] + coeff
    sparse = [{j: x for j, x in enumerate(r) if not x.is_zero()}
              for r in rows.values()]
    rhs = {i: r.pop(len(products)) for i, r in enumerate(sparse)
           if len(products) in r}
    (sol,) = linalg.solve(sparse, len(products), [rhs])
    if sol is None:
        return INCONCLUSIVE, {"words": len(words)}
    return VERIFIED, {"combination": [[products[j][0], products[j][1], str(c)]
                                      for j, c in sol.items()]}


def _standard(recipe):
    S = build_setting(recipe)
    return OrderPresentation(S, standard_generators(S))


def test_morita_witness_matches_brute_force():
    # morita_witness forms products only over the first word of each distinct
    # nonzero a*e and e*b; the full system must give the same report
    sign = sign_setting()
    x, d, s = (sign.from_ratfunc(sign.ring.var(0)), sign.inf_element(0),
               sign.group_element(1))
    rd_s2 = _standard(RationalDifferential(2, "S2"))
    cases = [
        (OrderPresentation(sign, [("x", x), ("d", d), ("s", s)]), 2),
        (rd_s2, 1),
        (rd_s2, 2),
        (_standard(Cherednik(2, "S2")), 1),
        (_standard(GKVHecke("A1", "multiplicative")), 2),
        # the group element first, so that the word s*s repeats 1
        (OrderPresentation(sign, [("s", s), ("x", x), ("d", d)]), 2),
        (OrderPresentation(sign, [("s", s), ("x", x)]), 2),
    ]
    for pres, length in cases:
        rep = morita_witness(pres, length)
        assert (rep.status, rep.witness) == brute_force_morita(pres, length), \
            (pres.names(), length)


GOLDEN = Path(__file__).parent / "golden"


def golden_presentation(name):
    """The presentation and word length of a golden spherical config."""
    config = json.loads((GOLDEN / ("%s.config.json" % name)).read_text())
    S = build_setting(parse_recipe(config["recipe"]))
    return (OrderPresentation(S, standard_generators(S)),
            config["bounds"]["word_length"])


def solved_system(monkeypatch, pres, length):
    """The rows and right-hand side that ``morita_witness`` hands to solve."""
    seen = []

    def capture(rows, ncols, columns):
        seen.append((rows, ncols, columns))
        return solve(rows, ncols, columns)

    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", capture)
    morita_witness(pres, length)
    (system,) = seen
    return system


@pytest.mark.parametrize("name", ["cherednik-s2-spherical", "gkv-hecke-a1-spherical"])
def test_streamed_rows_equal_the_rows_of_all_products(monkeypatch, name):
    """Folding each product in as it is formed, and rescaling a key's rows
    when a new denominator arrives, gives the rows of the construction that
    keeps every product alive, as values."""
    pres, length = golden_presentation(name)
    expected, most = morita_rows_oracle(pres, length)
    # some key sees a second denominator, so the rescaling runs
    assert most >= 2
    rows, n, (rhs,) = solved_system(monkeypatch, pres, length)
    streamed = [{**row, n: rhs[i]} if i in rhs else row
                for i, row in enumerate(rows)]
    assert streamed == expected


def test_morita_witness_keeps_its_memory_small():
    """The products are folded in one at a time: the whole check on
    rational-differential n=2, S2 at word length 2 (289 products, a 140 x 289
    system) peaks under 1.5 MB of Python allocations; with every product
    alive and a dense system it peaked at about 2.7 MB."""
    pres, length = golden_presentation("rational-differential-s2-spherical")
    tracemalloc.start()
    try:
        rep = morita_witness(pres, length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.status == VERIFIED
    assert peak < 1.5 * 2 ** 20


def test_morita_witness_builds_its_word_pool_once(monkeypatch):
    """bench/spans.py counts spherical.morita_products through each call of
    ``_word_pool``, and wraps ``try_divide`` where spherical binds it."""
    calls = []

    def counted(presentation, word_length):
        calls.append(word_length)
        return word_pool(presentation, word_length)

    word_pool = spherical._word_pool
    monkeypatch.setattr(spherical, "_word_pool", counted)
    pres, length = golden_presentation("rational-differential-s2-spherical")
    assert morita_witness(pres, length).status == VERIFIED
    assert calls == [length]
    assert spherical.try_divide is polyring.try_divide
