"""Recipes and the distinguished operators they carry."""

from fractions import Fraction

import pytest

from hopfgalois import catalog
from hopfgalois.catalog import (RECIPES, Cherednik, GKVHecke, OreFamily,
                                QuantumBorel, RationalDifferential, ShiftFlag,
                                TrigonometricDifferential, build_setting,
                                demazure_lusztig, dunkl_operator, ore_generator,
                                quantum_borel_E, standard_generators)
from hopfgalois.cli import parse_recipe
from hopfgalois.polyring import RatFunc
from hopfgalois.smash import MAX_GROUP_ORDER, Setting


def test_quantum_borel_setting():
    S = build_setting(QuantumBorel())
    assert S.validate()
    assert S.ring.names == ("t",)
    E = S.inf_by_name("E")
    assert E.apply(RatFunc.of(S.ring.var(0))) == RatFunc.of(S.ring.one)


def test_rational_differential_s2():
    S = build_setting(RationalDifferential(2, "S2"))
    assert S.validate()
    assert S.group_size == 2
    assert len(S.inf_gens) == 2
    s = S.group_element(1)
    assert s.apply(RatFunc.of(S.ring.var(0))) == RatFunc.of(S.ring.var(1))


def test_shift_flag_rank_one():
    S = build_setting(ShiftFlag(1, "trivial"))
    tau = S.group_element(0, (3,))
    x = RatFunc.of(S.ring.var(0))
    assert tau.apply(x) == x + 3


def test_group_closure_rejected():
    with pytest.raises(ValueError):
        build_setting(RationalDifferential(2, "S3"))


# -- Dunkl ---------------------------------------------------------------------


def test_dunkl_z2_shape():
    S = build_setting(Cherednik(1, "Z2"))
    D = dunkl_operator(S, 0)
    pf = S.ring.params
    t, c = pf.param("t"), pf.param("c")
    # D = t d + c x^-1 (s - 1)
    x = RatFunc.of(S.ring.var(0))
    byhand = S.inf_element(0).scale(RatFunc.of(S.ring.const(t))) + \
        (S.group_element(1) - S.one()).scale(RatFunc.of(S.ring.const(c)) / x)
    assert D == byhand


def test_dunkl_c_zero_specializes_to_derivative():
    S = build_setting(Cherednik(1, "Z2"))
    D = dunkl_operator(S, 0)
    pf = S.ring.params
    # substituting c -> 0 is not a ring op here; instead verify the c-part
    # is exactly the reflection term by subtracting t*d
    rest = D - S.inf_element(0).scale(RatFunc.of(S.ring.const(pf.param("t"))))
    for (gp, alpha), coeff in rest.terms.items():
        assert not any(alpha)


def test_dunkl_s2_at_x1():
    S = build_setting(Cherednik(2, "S2"))
    D1 = dunkl_operator(S, 0)
    pf = S.ring.params
    img = D1.apply(RatFunc.of(S.ring.var(0)))
    assert img == RatFunc.of(S.ring.const(pf.param("t") - pf.param("c")))


def test_dunkl_commutativity_rank2():
    for recipe in (Cherednik(2, "S2"), Cherednik(3, "S3")):
        S = build_setting(recipe)
        ds = [dunkl_operator(S, i) for i in range(S.ring.nvars)]
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                assert (ds[i] * ds[j] - ds[j] * ds[i]).is_zero()


def test_dunkl_lattice_preservation_window():
    for recipe in (Cherednik(1, "Z2"), Cherednik(1, "Z3"), Cherednik(2, "S2")):
        S = build_setting(recipe)
        ds = [dunkl_operator(S, i) for i in range(S.ring.nvars)]
        for exps in S.ring.monomials_up_to(6):
            f = RatFunc.of(S.ring.monomial(exps))
            for D in ds:
                assert D.apply(f).is_in_lattice()


# -- Demazure-Lusztig ------------------------------------------------------------


def test_demazure_a1_multiplicative_values():
    S = build_setting(GKVHecke("A1", "multiplicative"))
    sig = demazure_lusztig(S, 0)
    q = S.meta["q"]
    z = RatFunc.of(S.ring.var(0))
    assert sig.apply(z) == RatFunc.of(S.ring.monomial((-1,), q ** -1))
    assert sig.apply(RatFunc.of(S.ring.one)) == RatFunc.of(S.ring.const(q))
    invariant = z ** 2 + z ** -2
    assert sig.apply(invariant) == RatFunc.of(S.ring.const(q)) * invariant


def test_hecke_quadratic_all_variants():
    for cartan in ("A1", "A2"):
        S = build_setting(GKVHecke(cartan, "multiplicative"))
        q = S.meta["q"]
        qe, qie = S.from_const(q), S.from_const(q ** -1)
        for i in range(S.meta["rank"]):
            sig = demazure_lusztig(S, i)
            assert ((sig - qe) * (sig + qie)).is_zero()
        # the degenerate variant satisfies the +-q quadratic instead
        Sa = build_setting(GKVHecke(cartan, "additive"))
        qa = Sa.meta["q"]
        qe = Sa.from_const(qa)
        for i in range(Sa.meta["rank"]):
            sig = demazure_lusztig(Sa, i)
            assert ((sig - qe) * (sig + qe)).is_zero()


def test_braid_relation_a2():
    for variant in ("multiplicative", "additive"):
        S = build_setting(GKVHecke("A2", variant))
        s1 = demazure_lusztig(S, 0)
        s2 = demazure_lusztig(S, 1)
        assert s1 * s2 * s1 == s2 * s1 * s2


def test_demazure_lattice_preservation():
    for variant in ("multiplicative", "additive"):
        S = build_setting(GKVHecke("A1", variant))
        sig = demazure_lusztig(S, 0)
        for exps in S.ring.monomials_up_to(6, include_negative=True):
            assert sig.apply(RatFunc.of(S.ring.monomial(exps))).is_in_lattice()


# -- Ore family ---------------------------------------------------------------------


def test_ore_weyl_commutator():
    S = build_setting(OreFamily((1,)))
    X = ore_generator(S)
    t = S.from_ratfunc(S.ring.var(0))
    assert X * t - t * X == S.one()


def test_ore_tsquared_commutator():
    S = build_setting(OreFamily((0, 0, 1)))
    X = ore_generator(S)
    t = S.from_ratfunc(S.ring.var(0))
    assert X * t - t * X == S.from_ratfunc(S.ring.var(0) ** 2)


def test_ore_t_tminus1_commutator():
    S = build_setting(OreFamily((0, -1, 1)))  # p = t(t-1) = t^2 - t
    X = ore_generator(S)
    t = S.from_ratfunc(S.ring.var(0))
    expected = S.from_ratfunc(S.ring.var(0) ** 2 - S.ring.var(0))
    assert X * t - t * X == expected


def test_ore_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        build_setting(OreFamily((0,)))


# -- trig + generator listings ---------------------------------------------------------


def test_trigonometric_euler_action():
    S = build_setting(TrigonometricDifferential(2, "S2"))
    th1 = S.inf_element(0)
    z1 = RatFunc.of(S.ring.var(0))
    z2 = RatFunc.of(S.ring.var(1))
    assert th1.apply(z1 ** 4 * z2) == 4 * (z1 ** 4 * z2)
    assert th1.apply(z2) == RatFunc.of(S.ring.zero)


def test_standard_generators_cover_each_setting():
    for recipe in (QuantumBorel(), OreFamily((1,)), Cherednik(1, "Z2"),
                   GKVHecke("A1", "multiplicative"), ShiftFlag(1, "trivial"),
                   RationalDifferential(1, "Z2"),
                   TrigonometricDifferential(1, "inversion")):
        S = build_setting(recipe)
        gens = standard_generators(S)
        assert gens, recipe
        names = [n for n, _ in gens]
        assert len(names) == len(set(names))


def test_all_catalog_operators_preserve_lattice_degree8():
    # beyond Dunkl/Demazure: the Ore generator, the quantum Borel skew
    # generator, Euler operators, and shifts, on the same degree-8 window
    cases = [
        (QuantumBorel(), lambda S: [S.inf_by_name("E")]),
        (OreFamily((0, 0, 1)), lambda S: [ore_generator(S)]),
        (TrigonometricDifferential(1, "inversion"),
         lambda S: [S.inf_element(0), S.group_element(1)]),
        (ShiftFlag(1, "trivial"),
         lambda S: [S.group_element(0, (1,)), S.group_element(0, (-1,))]),
    ]
    for recipe, get_ops in cases:
        S = build_setting(recipe)
        for op in get_ops(S):
            for exps in S.ring.monomials_up_to(8, include_negative=True):
                assert op.apply(RatFunc.of(S.ring.monomial(exps))).is_in_lattice()


# -- the recipe registry ---------------------------------------------------------

# the required config keys of each kind
MINIMAL = {
    "quantum-borel": {},
    "rational-differential": {"n": 1},
    "trigonometric-differential": {"n": 1},
    "ore": {"p": ["1"]},
    "shift-flag": {"n": 1},
    "gkv-hecke": {},
    "cherednik": {"n": 2},
}


def test_every_recipe_parses_from_a_minimal_config_and_builds():
    assert set(MINIMAL) == set(RECIPES)
    assert len(set(RECIPES.values())) == len(RECIPES)
    for kind, cls in RECIPES.items():
        recipe = parse_recipe(dict(MINIMAL[kind], kind=kind))
        assert type(recipe) is cls
        S = build_setting(recipe)
        assert S.recipe == recipe
        assert S.validate()


def test_recipe_fields_are_the_config_keys():
    assert parse_recipe({"kind": "gkv-hecke", "cartan": "A2",
                         "variant": "additive"}) == GKVHecke("A2", "additive")
    assert parse_recipe({"kind": "ore", "p": ["0", "1/2"]}) == \
        OreFamily(p=(0, Fraction(1, 2)))
    assert parse_recipe({"kind": "shift-flag", "n": 2, "group": "S2"}) == \
        ShiftFlag(2, "S2")


def test_operator_guards_reject_other_settings():
    owners = [(dunkl_operator, Cherednik(1, "Z2"), (0,)),
              (demazure_lusztig, GKVHecke(), (0,)),
              (ore_generator, OreFamily((1,)), ()),
              (quantum_borel_E, QuantumBorel(), ())]
    settings = [build_setting(recipe) for _, recipe, _ in owners]
    built = settings[0]
    settings.append(Setting(built.ring, group_mult=built.group_mult,
                            group_inv=built.group_inv,
                            group_subs=built.group_subs,
                            group_names=built.group_names))
    for k, (operator, _, args) in enumerate(owners):
        assert not operator(settings[k], *args).is_zero()
        for j, S in enumerate(settings):
            if j != k:
                with pytest.raises(ValueError):
                    operator(S, *args)


def test_setting_takes_at_most_the_catalog_group_order():
    assert catalog.MAX_GROUP_ORDER is MAX_GROUP_ORDER
    ring = build_setting(OreFamily((1,))).ring

    def cyclic(n):
        return Setting(ring, group_mult=[[(i + j) % n for j in range(n)] for i in range(n)],
                       group_inv=[-i % n for i in range(n)], group_subs=[{}] * n,
                       group_names=["g%d" % i for i in range(n)])

    assert cyclic(MAX_GROUP_ORDER).group_size == MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="larger than %d" % MAX_GROUP_ORDER):
        cyclic(MAX_GROUP_ORDER + 1)


def test_standard_generators_of_a_hand_built_setting():
    built = build_setting(RationalDifferential(2, "S2"))
    S = Setting(built.ring, name="rational-differential",
                group_mult=built.group_mult, group_inv=built.group_inv,
                group_subs=built.group_subs, group_names=built.group_names,
                inf_gens=built.inf_gens, conj_table=built.conj_table)
    assert S.recipe is None
    gens = standard_generators(S)
    assert [n for n, _ in gens] == ["x1", "x2", "s1"]
    assert gens[2][1] == S.group_element(1)
    assert [n for n, _ in standard_generators(built)] == \
        ["x1", "x2", "s1", "d1", "d2"]
