"""Distribution modules: actions, canonical modules, simple quotients."""

import random

import pytest

from hopfgalois import linalg
from hopfgalois.catalog import (Cherednik, OreFamily, QuantumBorel,
                                RationalDifferential, ShiftFlag,
                                TrigonometricDifferential, build_setting,
                                ore_generator, standard_generators)
from hopfgalois.hcmod import (DistributionVector, cyclic_module,
                              distribution_action, largest_invariant_avoiding,
                              local_finiteness_check, scalar_module_check,
                              simple_quotient)
from hopfgalois.params import ParamElem
from hopfgalois.polyring import RatFunc
from hopfgalois.stabilizer import PointIdeal
from hopfgalois.verify import COUNTEREXAMPLE, VERIFIED, OrderPresentation
from oracles import (cyclic_closure_dims, derivative_delta, evaluate,
                     invariant_coordinate_subspaces)


def weyl_presentation():
    S = build_setting(OreFamily((1,)))
    return OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0))),
                                 ("d", S.inf_element(0))])


def delta(S, k):
    return derivative_delta(S.ring, (S.ring.params.zero,), (k,))


# -- single-operator actions, against the functional-evaluation oracle ---------


def test_weyl_delta_ladder():
    pres = weyl_presentation()
    S = pres.setting
    t = pres.generators[0][1]
    d = pres.generators[1][1]
    for k in range(4):
        dk = delta(S, k)
        td, leak = distribution_action(t, dk, 6)
        assert not leak
        expect = delta(S, k - 1).scale(S.ring.params.from_fraction(k)) if k \
            else DistributionVector(S.ring, [])
        assert td == expect
        dd, _ = distribution_action(d, dk, 6)
        assert dd == delta(S, k + 1)


@pytest.mark.parametrize("recipe, coords", [
    (OreFamily((1,)), (0,)),
    (RationalDifferential(2, "Z3"), (1, 2)),
    (ShiftFlag(2, "S2"), (2, 5)),
    (TrigonometricDifferential(1, "inversion"), (2,)),
    (OreFamily((0, 0, 1)), (3,)),
    (Cherednik(2, "S2"), (1, 3)),
], ids=["weyl", "rational-differential-z3", "shift-flag-s2",
        "trigonometric-inversion", "ore-t-squared", "cherednik-s2"])
def test_action_matches_pairing_oracle(recipe, coords):
    # (X xi)(f) = xi(X(f)) checked by direct evaluation on monomials, for
    # products X of two standard generators on derivative deltas: every
    # multiplication, group and primitive dual, with headroom for no leak;
    # degree 4 reaches every jet index that two derivations produce
    S = build_setting(recipe)
    ring = S.ring
    point = tuple(ring.params.from_fraction(c) for c in coords)
    ops = [g for _, g in standard_generators(S)]
    monomials = [RatFunc.of(ring.monomial(e))
                 for e in ring.monomials_up_to(4, include_negative=True)]
    for index in ring.monomials_up_to(2):
        xi = derivative_delta(ring, point, index)
        for A in ops:
            for B in ops:
                X = A * B
                Xxi, leak = distribution_action(X, xi, 8)
                assert not leak
                for f in monomials:
                    assert evaluate(Xxi, f) == evaluate(xi, X.apply(f))


def test_lattice_elements_act_by_weights_on_characters():
    S = build_setting(ShiftFlag(2, "S2"))
    pf = S.ring.params
    coords = (pf.from_fraction(2), pf.from_fraction(5))
    lam = DistributionVector.evaluation(S.ring, coords)
    a = S.from_ratfunc(S.ring.var(0) * S.ring.var(1) + S.ring.var(0))
    out, _ = distribution_action(a, lam, 3)
    assert out == lam.scale(pf.from_fraction(12))


def test_grouplike_transport():
    S = build_setting(RationalDifferential(2, "S2"))
    pf = S.ring.params
    xi = derivative_delta(
        S.ring, (pf.from_fraction(1), pf.from_fraction(2)), (1, 0))
    out, _ = distribution_action(S.group_element(1), xi, 4)
    assert len(out.entries) == 1
    coords, tab = out.entries[0]
    assert [str(c) for c in coords] == ["2", "1"]
    assert list(tab) == [(0, 1)]


def test_twisted_generator_not_transportable():
    S = build_setting(QuantumBorel())
    xi = DistributionVector.evaluation(S.ring, (S.ring.params.one,))
    with pytest.raises(NotImplementedError):
        distribution_action(S.inf_by_name("E"), xi, 2)


def test_module_axiom_opposite_composition():
    # action(XY, xi) = action(Y, action(X, xi)) wherever jets have headroom
    pres = weyl_presentation()
    S = pres.setting
    rng = random.Random(13)
    ops = [g for _, g in pres.generators]
    N = 12
    for _ in range(40):
        X, Y = rng.choice(ops), rng.choice(ops)
        xi = delta(S, rng.randint(0, 2))
        lhs, _ = distribution_action(X * Y, xi, N)
        mid, _ = distribution_action(X, xi, N)
        rhs, _ = distribution_action(Y, mid, N)
        assert lhs == rhs


# -- canonical modules --------------------------------------------------------------


def test_weyl_canonical_module():
    pres = weyl_presentation()
    S = pres.setting
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, jet_order=3, word_length=3)
    assert M.dim == 4
    assert M.basis_labels() == ["delta[(0);[0]]", "delta[(0);[1]]",
                                "delta[(0);[2]]", "delta[(0);[3]]"]
    assert M.point_block_dims() == [4]
    assert len(M.ordinary_weight_space(lam)) == 1
    # the derivative matrix leaks at the truncation edge, the t matrix does not
    assert M.leaks["d"] and not M.leaks["t"]
    # matrices in the jet basis e_k = delta^(k)/k!: t shifts down with
    # weight 1, d raises with weight k+1 (the classical delta rules
    # t delta^(k) = k delta^(k-1), d delta^(k) = delta^(k+1) in disguise)
    t = M.matrices["t"]
    d = M.matrices["d"]
    one = S.ring.params.one
    for k in range(3):
        assert d[k + 1][k] == (k + 1) * one
        assert t[k][k + 1] == one


def test_weyl_simple_quotient_is_whole_module():
    pres = weyl_presentation()
    S = pres.setting
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    Q = simple_quotient(M, lam)
    assert Q.dim == M.dim
    # exhaustive invariant-coordinate-subspace search finds nothing proper
    assert invariant_coordinate_subspaces(list(M.matrices.values()), M.dim) == []
    assert cyclic_closure_dims(list(M.matrices.values()), M.dim,
                               S.ring.params) == [4, 4, 4, 4]


def test_tsquared_module_at_zero():
    S = build_setting(OreFamily((0, 0, 1)))
    pres = OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0))),
                                 ("X", ore_generator(S))])
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    assert M.dim == 1
    Q = simple_quotient(M, lam)
    assert Q.dim == 1
    # brute force over coordinate subspaces agrees: nothing proper and nonzero
    assert invariant_coordinate_subspaces(list(M.matrices.values()), M.dim) == []


def test_ore_tsquared_generic_point_behaves_like_weyl():
    S = build_setting(OreFamily((0, 0, 1)))
    pres = OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0))),
                                 ("X", ore_generator(S))])
    lam = PointIdeal(S.ring, (1,))
    M = cyclic_module(pres, lam, 2, 2)
    assert M.dim == 3  # X acts as an honest derivative scaled by p(1) = 1
    assert len(M.ordinary_weight_space(lam)) == 1


def test_lattice_only_module_is_the_character_line():
    S = build_setting(OreFamily((1,)))
    pres = OrderPresentation(S, [("t", S.from_ratfunc(S.ring.var(0)))])
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    assert M.dim == 1
    assert simple_quotient(M, lam).dim == 1


def test_shift_module_weight_transport_blocks():
    S = build_setting(ShiftFlag(1, "trivial"))
    pres = OrderPresentation(
        S, [("t", S.from_ratfunc(S.ring.var(0))),
            ("tau", S.group_element(0, (1,))),
            ("tau-inv", S.group_element(0, (-1,)))])
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 1, 2, orbit_window=8)
    # the orbit spreads over shifted points (0, +-1, +-2), one jet line each
    assert len(M.points) == 5
    assert M.point_block_dims() == [1, 1, 1, 1, 1]


def test_orbit_window_escape_raises():
    S = build_setting(ShiftFlag(1, "trivial"))
    pres = OrderPresentation(S, [("tau", S.group_element(0, (1,)))])
    lam = PointIdeal(S.ring, (0,))
    with pytest.raises(ValueError):
        cyclic_module(pres, lam, 1, 5, orbit_window=2)


def shift_flag_module(S, generators, coords):
    pres = OrderPresentation(S, generators)
    pf = S.ring.params
    lam = PointIdeal(S.ring, tuple(pf.from_fraction(c) for c in coords))
    return cyclic_module(pres, lam, 1, 2), lam


def shift_flag_line():
    S = build_setting(ShiftFlag(1))
    return shift_flag_module(S, [("t", S.from_ratfunc(S.ring.var(0))),
                                 ("tau", S.group_element(0, (1,)))], (0,))


def shift_flag_s2():
    S = build_setting(ShiftFlag(2, "S2"))
    gens = dict(standard_generators(S))
    return shift_flag_module(S, [(n, gens[n]) for n in ("x1", "tau1", "s1")],
                             (0, 1))


def strings(mat):
    return [[str(c) for c in row] for row in mat]


@pytest.mark.parametrize("build, U_rows, U_pivots, quotient", [
    # the shift carries the character at 0 to the points 1 and 2, where t
    # acts by 1 and 2: both lie in the invariant part that misses the line
    (shift_flag_line, [["0", "1", "0"], ["0", "0", "1"]], [1, 2],
     {"t": [["0"]], "tau": [["0"]]}),
    # the reflection keeps the character at (0, 1) paired with (1, 0);
    # the shifted points (1, 1), (2, 1), (2, 0) are divided out
    (shift_flag_s2, [["0", "1", "0", "0", "0"], ["0", "0", "0", "1", "0"],
                     ["0", "0", "0", "0", "1"]], [1, 3, 4],
     {"x1": [["0", "0"], ["0", "1"]], "tau1": [["0", "0"], ["0", "0"]],
      "s1": [["0", "1"], ["1", "0"]]}),
])
def test_proper_simple_quotient(build, U_rows, U_pivots, quotient):
    M, lam = build()
    U, upiv = largest_invariant_avoiding(M, lam)
    assert strings(U) == U_rows
    assert upiv == U_pivots
    Q = simple_quotient(M, lam)
    assert Q.dim == M.dim - len(U_pivots)
    assert {n: strings(m) for n, m in Q.matrices.items()} == quotient
    # every matrix maps U into U
    zero = M.setting.ring.params.zero
    for A in M.matrices.values():
        images = [[sum((A[i][k] * u[k] for k in range(M.dim)), start=zero)
                   for i in range(M.dim)] for u in U]
        assert linalg.rank(U + images) == len(U)
    # the brute-force oracle: U is the largest invariant coordinate
    # subspace that leaves out the character coordinate 0
    subsets = invariant_coordinate_subspaces(list(M.matrices.values()), M.dim)
    assert max((s for s in subsets if 0 not in s), key=len) == upiv



def test_closure_multiplies_no_zeros(monkeypatch):
    # the action matrices are mostly zeros; the closure that finds the
    # invariant subspace skips them, and so does the oracle's closure of
    # the cyclic submodules
    M, lam = shift_flag_s2()
    mul = ParamElem.__mul__

    def guarded(a, b):
        if a.is_zero() or (isinstance(b, ParamElem) and b.is_zero()):
            raise AssertionError("product with a zero factor")
        return mul(a, b)

    monkeypatch.setattr(ParamElem, "__mul__", guarded)
    _, upiv = largest_invariant_avoiding(M, lam)
    assert upiv == [1, 3, 4]
    assert cyclic_closure_dims(list(M.matrices.values()), M.dim,
                               M.setting.ring.params) == [5, 2, 5, 1, 1]

# -- scalar modules and local finiteness -----------------------------------------------


def test_scalar_module_family():
    S = build_setting(OreFamily((0, 0, 1)))
    p = S.meta["p"]
    for mu in range(20):
        assert scalar_module_check(p, 0, mu).status == VERIFIED
    assert scalar_module_check(p, 1, 0).to_dict() == {
        "check": "scalar-module", "status": COUNTEREXAMPLE,
        "witness": {"lambda": "1", "mu": "0", "p(lambda)": "1"}, "bounds": {},
        "provenance": "Xt - tX = p(t) on a line forces p(lambda) = 0"}
    W = build_setting(OreFamily((1,)))
    assert scalar_module_check(W.meta["p"], 0, 5).status == COUNTEREXAMPLE


def test_local_finiteness_weyl():
    pres = weyl_presentation()
    S = pres.setting
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    rep = local_finiteness_check(M, pres, 1, lam)
    assert rep.status == VERIFIED
    assert rep.witness["weight-space-dim"] == 4
    assert "d" in rep.witness["low-degree-generators"]


def test_local_finiteness_group_only():
    S = build_setting(ShiftFlag(1, "trivial"))
    pres = OrderPresentation(
        S, [("t", S.from_ratfunc(S.ring.var(0))),
            ("tau", S.group_element(0, (1,))),
            ("tau-inv", S.group_element(0, (-1,)))])
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 1, 2, orbit_window=8)
    rep = local_finiteness_check(M, pres, 0, lam)
    assert rep.status == VERIFIED


def test_local_finiteness_no_weight_vector():
    pres = weyl_presentation()
    S = pres.setting
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    other = PointIdeal(S.ring, (5,))
    rep = local_finiteness_check(M, pres, 1, other)
    assert rep.to_dict() == {
        "check": "local-finiteness", "status": COUNTEREXAMPLE,
        "witness": {"hypothesis": "i", "reason": "no weight vector at the point"},
        "bounds": {"level": 1},
        "provenance": "a filtration slice generating from a weight vector "
                      "bounds the weight space"}


def test_local_finiteness_level_zero_does_not_generate():
    # at level 0 only t acts, and t alone does not reach the derivatives of delta
    pres = weyl_presentation()
    S = pres.setting
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    rep = local_finiteness_check(M, pres, 0, lam)
    assert rep.to_dict() == {
        "check": "local-finiteness", "status": COUNTEREXAMPLE,
        "witness": {
            "hypothesis-i": "generators of degree <= 0 do not generate the "
                            "module from a weight vector",
            "low-degree-generators": ["t"],
            "hypothesis-ii": "level-0 slab has 1 infinitesimal monomial(s); "
                             "grouplike stabilizer has 1 element(s)",
            "weight-space-dim": 4},
        "bounds": {"level": 0, "monoid-window": 3},
        "provenance": "a filtration slice generating from a weight vector "
                      "bounds the weight space"}


def test_truncated_relations_fail_only_at_the_leaky_edge():
    # matrices act for the opposite algebra, so dt - td = 1 on elements
    # becomes [A_d, A_t] = -I; it holds except in the last jet column,
    # which is exactly where the flagged truncation dropped delta^(4)
    pres = weyl_presentation()
    S = pres.setting
    lam = PointIdeal(S.ring, (0,))
    M = cyclic_module(pres, lam, 3, 3)
    Ad, At = M.matrices["d"], M.matrices["t"]
    params = S.ring.params
    d = M.dim
    comm = [[sum((Ad[i][k] * At[k][j] - At[i][k] * Ad[k][j] for k in range(d)),
                 start=params.zero) for j in range(d)] for i in range(d)]
    minus_one = params.from_fraction(-1)
    for i in range(d):
        for j in range(d - 1):
            expected = minus_one if i == j else params.zero
            assert comm[i][j] == expected
    assert M.leaks["d"]
    # the edge column indeed deviates
    assert any(not (comm[i][d - 1] - (minus_one if i == d - 1 else params.zero))
               .is_zero() for i in range(d))
