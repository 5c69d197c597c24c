"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is tolerance-zero; each test prints a PASS line with its
elapsed time and asserts the stated per-criterion runtime budget.
"""

import argparse
import random
import time
import zlib

from hopfgalois import cli
from hopfgalois.catalog import (Cherednik, GKVHecke, OreFamily, QuantumBorel,
                                RationalDifferential, ShiftFlag,
                                TrigonometricDifferential, build_setting,
                                demazure_lusztig, dunkl_operator, ore_generator,
                                standard_generators)
from hopfgalois.hcmod import (DistributionVector, cyclic_module,
                              distribution_action, scalar_module_check,
                              simple_quotient)
from hopfgalois.polyring import RatFunc
from hopfgalois.spherical import (idempotent, morita_witness, psi,
                                  spherical_axiom_check, symmetrize)
from hopfgalois.stabilizer import (GrouplikeSpan, PointIdeal, find_reductor,
                                   finiteness_predicate, fixes_point,
                                   full_group_span, stab_group, verify_reductor)
from hopfgalois.verify import (VERIFIED, OrderPresentation, VerificationReport,
                               fo_certificate, max_commutative_probe,
                               split_decompose, weight_fiber_witness)
from oracles import (cyclic_closure_dims, derivative_delta, evaluate,
                     invariant_coordinate_subspaces, left_rank_oracle)


def _report(label, t0, budget):
    dt = time.time() - t0
    print("PASS  %s  (%.2fs, budget %ds)" % (label, dt, budget))
    assert dt < budget, "%s exceeded its %ds budget: %.1fs" % (label, budget, dt)


def _random_element(setting, gens, rng):
    monos = setting.ring.monomials_up_to(2, include_negative=True)
    x = rng.choice(gens) * rng.choice(gens)
    y = rng.choice(gens).scale(RatFunc.of(setting.ring.monomial(rng.choice(monos))))
    return x + y


ALL_SETTINGS = [
    QuantumBorel(),
    OreFamily((0, 0, 1)),
    RationalDifferential(2, "S2"),
    TrigonometricDifferential(1, "inversion"),
    ShiftFlag(2, "S2"),
    GKVHecke("A1", "multiplicative"),
    Cherednik(1, "Z2"),
]


def test_criterion_1_quantum_weyl_relation():
    t0 = time.time()
    S = build_setting(QuantumBorel())
    E = S.inf_by_name("E")
    t = S.from_ratfunc(S.ring.var(0))
    q = S.meta["q"]
    assert E * t == S.one() + (t * E).scale(RatFunc.of(S.ring.const(q ** -1)))
    for n in range(1, 7):
        En = E ** n
        lhs = En * t - (t * En).scale(RatFunc.of(S.ring.const(q ** -n)))
        coeff = S.ring.params.zero
        for j in range(n):
            coeff = coeff + q ** (-j)
        rhs = (E ** (n - 1)).scale(RatFunc.of(S.ring.const(coeff)))
        assert lhs == rhs, n
    _report("criterion 1: quantum Weyl relation, n <= 6", t0, 1)


def test_criterion_2_lattice_preservation_sweeps():
    t0 = time.time()
    dunkl_recipes = [Cherednik(1, "Z2"), Cherednik(2, "S2"), Cherednik(3, "S3"),
                     Cherednik(1, "Z3")]
    for recipe in dunkl_recipes:
        S = build_setting(recipe)
        ops = [dunkl_operator(S, v) for v in range(S.ring.nvars)]
        for exps in S.ring.monomials_up_to(8, include_negative=True):
            f = RatFunc.of(S.ring.monomial(exps))
            for D in ops:
                assert D.apply(f).is_in_lattice(), (recipe, exps)
    for cartan in ("A1", "A2"):
        for variant in ("multiplicative", "additive"):
            S = build_setting(GKVHecke(cartan, variant))
            ops = [demazure_lusztig(S, i) for i in range(S.meta["rank"])]
            for exps in S.ring.monomials_up_to(8, include_negative=True):
                f = RatFunc.of(S.ring.monomial(exps))
                for sig in ops:
                    assert sig.apply(f).is_in_lattice(), (cartan, variant, exps)
    _report("criterion 2: Dunkl + Demazure-Lusztig lattice sweeps, degree 8",
            t0, 60)


def test_criterion_3_operator_identity_suite():
    t0 = time.time()
    # Dunkl commutativity in rank 2 and rank 3, symbolic t, c
    for recipe in (Cherednik(2, "S2"), Cherednik(3, "S3")):
        S = build_setting(recipe)
        ops = [dunkl_operator(S, v) for v in range(S.ring.nvars)]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                assert (ops[i] * ops[j] - ops[j] * ops[i]).is_zero()
    # Hecke quadratic (sigma - q)(sigma + q^-1) = 0 in types A1 and A2
    for cartan in ("A1", "A2"):
        S = build_setting(GKVHecke(cartan, "multiplicative"))
        q = S.meta["q"]
        qe, qie = S.from_const(q), S.from_const(q ** -1)
        for i in range(S.meta["rank"]):
            sig = demazure_lusztig(S, i)
            assert ((sig - qe) * (sig + qie)).is_zero()
        # the degenerate (additive) variant satisfies the +-q quadratic
        Sa = build_setting(GKVHecke(cartan, "additive"))
        qa = Sa.from_const(Sa.meta["q"])
        for i in range(Sa.meta["rank"]):
            sig = demazure_lusztig(Sa, i)
            assert ((sig - qa) * (sig + qa)).is_zero()
    # braid relation in A2, both variants
    for variant in ("multiplicative", "additive"):
        S = build_setting(GKVHecke("A2", variant))
        s1, s2 = demazure_lusztig(S, 0), demazure_lusztig(S, 1)
        assert s1 * s2 * s1 == s2 * s1 * s2
    _report("criterion 3: Dunkl commutators, Hecke quadratic, braid", t0, 120)


def test_criterion_4_splitting_and_maximal_commutativity():
    t0 = time.time()
    for recipe in ALL_SETTINGS:
        S = build_setting(recipe)
        named = standard_generators(S)
        gens = [g for _, g in named]
        rng = random.Random(zlib.crc32(S.name.encode()) & 0xFFFF)
        for _ in range(200):
            x = _random_element(S, gens, rng)
            head, minus = split_decompose(x)
            assert head.is_in_lattice()
            assert S.from_ratfunc(head) + minus == x
            assert minus.apply(RatFunc.of(S.ring.one)).is_zero()
        for name, g in named:
            _, minus = split_decompose(g)
            if minus.is_zero():
                continue
            rep = max_commutative_probe(g, 2)
            assert rep.status == VERIFIED, (S.name, name)
    _report("criterion 4: lattice splitting x200 and commutativity probes",
            t0, 30)


def _oracle_independent(elements):
    """A maximal left-independent subset, picked greedily by the rank oracle."""
    els = []
    for g in elements:
        if left_rank_oracle(els + [g]) == len(els) + 1:
            els.append(g)
    return els


def _verify_preselection(monkeypatch, setting, presentation):
    """The generators ``verify`` hands to ``fo_certificate``, by identity."""
    picked = []

    def record(els, degree):
        picked.append(els)
        return VerificationReport("fo-certificate", VERIFIED)

    monkeypatch.setattr(cli, "fo_certificate", record)
    cli.cmd_verify({"checks": ["fo-certificate"]}, setting, presentation,
                   {"degree": 1}, {})
    return [id(g) for g in picked[0]]


def test_criterion_5_fo_certificates(monkeypatch):
    t0 = time.time()
    for recipe in ALL_SETTINGS:
        S = build_setting(recipe)
        named = standard_generators(S)
        # a maximal left-independent subset of the generators (the lattice
        # contributes one representative; a Demazure operator is already an
        # L-combination of 1 and its reflection), picked by the rank oracle
        els = _oracle_independent([g for _, g in named])
        assert len(els) >= 2, S.name
        assert left_rank_oracle(els) == len(els)
        # verify picks the same generators by one elimination
        assert _verify_preselection(monkeypatch, S, OrderPresentation(S, named)) \
            == [id(g) for g in els], S.name
        rep = fo_certificate(els, 4)
        assert rep.status == VERIFIED, S.name
        # the witness is a replayable nonzero determinant
        assert rep.witness["determinant"] not in ("0", "")
        # cross-check the other direction: a dependent set stays singular
        dependent = els + [els[0].scale(RatFunc.of(S.ring.var(0)))]
        assert left_rank_oracle(dependent) == len(els)
        assert fo_certificate(dependent, 2).status != VERIFIED
    # an extra generator x1*s1 in the left span of the standard s1
    S, pres, _ = cli.build_from_config(
        {"recipe": {"kind": "rational-differential", "n": 2, "group": "S2"},
         "extra_generators": [{"terms": [{"num_exps": [1, 0], "group": 1}]}]},
        argparse.Namespace())
    gens = pres.elements()
    els = _oracle_independent(gens)
    assert not any(g is gens[-1] for g in els)
    assert _verify_preselection(monkeypatch, S, pres) == [id(g) for g in els]
    _report("criterion 5: determinant certificates with rank cross-check",
            t0, 30)


def test_criterion_6_reductor_suite():
    t0 = time.time()
    S = build_setting(ShiftFlag(2, "S2"))
    rng = random.Random(606)
    pool = full_group_span(S, 2).members
    checked = 0
    while checked < 50:
        k = rng.choice((1, 1, 2))  # include product cases
        members = []
        for _ in range(k):
            g = rng.choice(pool)
            if g not in members:
                members.append(g)
        pt = PointIdeal(S.ring, (rng.randint(-3, 3), rng.randint(-3, 3)))
        span = GrouplikeSpan(S, members)
        red = find_reductor(span, pt)
        if any(fixes_point(S, g, pt) for g in members):
            assert red is None
        else:
            assert red is not None
            assert verify_reductor(red, span, pt).status == VERIFIED
        checked += 1
    # none exactly on stabilizer-fixed points
    pt = PointIdeal(S.ring, (2, 2))
    stab = stab_group(full_group_span(S, 2), pt)
    for g in stab.members:
        if S.gp_is_identity(g):
            continue
        assert find_reductor(GrouplikeSpan(S, [g]), pt) is None
    _report("criterion 6: 50 randomized reductors incl. products", t0, 10)


def test_criterion_7_weyl_canonical_module():
    t0 = time.time()
    S = build_setting(OreFamily((1,)))
    t = S.from_ratfunc(S.ring.var(0))
    d = S.inf_element(0)
    pres = OrderPresentation(S, [("t", t), ("d", d)])
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, jet_order=3, word_length=3)
    assert M.dim == 4
    assert M.basis_labels() == ["delta[(0);[0]]", "delta[(0);[1]]",
                                "delta[(0);[2]]", "delta[(0);[3]]"]
    # action rules against the functional-evaluation oracle:
    # t delta^(k) = k delta^(k-1) and d delta^(k) = delta^(k+1), where both
    # sides are compared by evaluating on the Taylor monomials t^j
    zero = (S.ring.params.zero,)
    for k in range(4):
        dk = derivative_delta(S.ring, zero, (k,))
        td, _ = distribution_action(t, dk, 8)
        dd, _ = distribution_action(d, dk, 8)
        expect_t = derivative_delta(S.ring, zero, (k - 1,)) \
            .scale(S.ring.params.from_fraction(k)) if k else \
            DistributionVector(S.ring, [])
        expect_d = derivative_delta(S.ring, zero, (k + 1,))
        for j in range(8):
            f = RatFunc.of(S.ring.monomial((j,)))
            assert evaluate(td, f) == evaluate(expect_t, f)
            assert evaluate(dd, f) == evaluate(expect_d, f)
            assert evaluate(td, f) == evaluate(dk, t.apply(f))
    assert len(M.ordinary_weight_space(lam)) == 1
    Q = simple_quotient(M, lam)
    assert Q.dim == M.dim
    mats = list(M.matrices.values())
    assert invariant_coordinate_subspaces(mats, M.dim) == []
    assert cyclic_closure_dims(mats, M.dim, S.ring.params) == [4, 4, 4, 4]
    _report("criterion 7: Weyl canonical module at 0, jets of order 3", t0, 10)


def test_criterion_8_infinite_fiber_reproduction():
    t0 = time.time()
    S = build_setting(OreFamily((0, 0, 1)))
    p = S.meta["p"]
    for mu in range(20):
        assert scalar_module_check(p, 0, mu).status == VERIFIED
    assert scalar_module_check(p, 1, 0).status != VERIFIED
    assert scalar_module_check(p, 2, 3).status != VERIFIED
    finite, why = finiteness_predicate(S, PointIdeal(S.ring, (0,)))
    assert not finite
    assert "connected part" in why and "d" in why
    _report("criterion 8: scalar family at the double root, 20 members", t0, 1)


def test_criterion_9_spherical_suite():
    t0 = time.time()
    S = build_setting(Cherednik(1, "Z2"))
    e = idempotent(S)
    assert e * e == e
    rng = random.Random(909)
    D = dunkl_operator(S, 0)
    x = S.from_ratfunc(S.ring.var(0))
    s = S.group_element(1)
    pool = [x, D, s, S.one()]
    for _ in range(100):
        a = symmetrize(rng.choice(pool) * rng.choice(pool))
        b = symmetrize(_random_element(S, pool, rng))
        assert psi(a * b) == psi(a) * psi(b)
    rep = spherical_axiom_check([("D^2", D * D)], S, 6)
    assert rep.status == VERIFIED
    pres = OrderPresentation(
        S, [("x", x), ("d", S.inf_element(0)), ("s", s)])
    rep = morita_witness(pres, 2)
    assert rep.status == VERIFIED
    _report("criterion 9: idempotent, psi x100, spherical axiom, Morita",
            t0, 120)


def test_criterion_10_representation_consistency():
    t0 = time.time()
    for recipe in ALL_SETTINGS:
        S = build_setting(recipe)
        gens = [g for _, g in standard_generators(S)]
        rng = random.Random(1010)
        monos = S.ring.monomials_up_to(2, include_negative=True)
        for _ in range(500):
            x = rng.choice(gens)
            y = rng.choice(gens) * rng.choice(gens)
            f = RatFunc.of(S.ring.monomial(rng.choice(monos)))
            assert (x * y).apply(f) == x.apply(y.apply(f))
    _report("criterion 10: hat-map multiplicativity, 500 triples x 7 settings",
            t0, 60)
