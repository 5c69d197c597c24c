"""Constructors for the concrete settings and their distinguished operators.

Each recipe is one frozen dataclass, and the one place that knows its
family.  Its fields are the config keys of ``recipe``, its docstring is
the summary that ``hopfgalois catalog`` prints, and it provides

* ``build()``: the :class:`~hopfgalois.smash.Setting`;
* ``operators(setting)``: the named distinguished operators, which
  :func:`standard_generators` lists after the lattice variables and the
  group elements (by default the infinitesimal generators, by name);
* ``identities(setting)``: reports on the exact structural identities of
  the family, the ``identities`` check of ``hopfgalois verify``.

``RECIPES`` maps each config ``kind`` to its class, and
:func:`build_setting` records the recipe on the setting it builds as
``setting.recipe``.

Every finite group is a matrix group: its elements are n x n matrices,
tuples of rows of :class:`~hopfgalois.numberfield.NumberField` elements,
over Q for the permutation and monomial groups and for GKV, and over
Q(zeta_l) for ``Z<l>``.  One enumeration closes the generators under the
one matrix product and returns the elements with their names and their
multiplication and inverse tables.  A monomial group acts on Laurent
variables through the integer exponents in its rational entries.

Reflections are detected as group elements s with rank(s - 1) = 1; their
root form alpha_s is read off the image of (s - 1) on linear forms and
normalized so its first nonzero coordinate is 1 (the Dunkl term is scale
invariant in alpha_s, so the normalization is harmless).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from . import linalg
from .numberfield import NumberField
from .params import ParamField
from .polyring import PolyRing, RatFunc
from .smash import MAX_GROUP_ORDER, InfGenerator, Setting
from .verify import COUNTEREXAMPLE, VERIFIED, VerificationReport


# -- recipes ------------------------------------------------------------------


class Recipe:
    """Base of the catalog recipes (see the module docstring)."""

    def operators(self, setting):
        return [(gen.name, setting.inf_element(g))
                for g, gen in enumerate(setting.inf_gens)]

    def identities(self, setting):
        return []


def _report(check, ok, provenance, **extra):
    return VerificationReport(check, VERIFIED if ok else COUNTEREXAMPLE,
                              provenance=provenance, **extra)


@dataclass(frozen=True)
class QuantumBorel(Recipe):
    """k[t] with skew-primitive E: Et = 1 + q^-1 tE (quantum Weyl algebra)"""

    def build(self):
        pf = ParamField(("q",))
        ring = PolyRing(("t",), params=pf)
        q = pf.param("q")
        E = InfGenerator("E", ring, {0: ring.one},
                         twist={0: ring.var(0) * (q ** -1)})
        return Setting(ring, name="quantum-borel", inf_gens=[E], meta={"q": q})

    def identities(self, setting):
        E = quantum_borel_E(setting)
        ring = setting.ring
        t = setting.from_ratfunc(ring.var(0))
        q = setting.meta["q"]
        ok = True
        for n in range(1, 5):
            En = E ** n
            lhs = En * t - (t * En).scale(RatFunc.of(ring.const(q ** -n)))
            coeff = sum((q ** -j for j in range(n)), ring.params.zero)
            rhs = (E ** (n - 1)).scale(RatFunc.of(ring.const(coeff)))
            ok = ok and lhs == rhs
        return [_report("quantum-weyl-relation", ok,
                        "E^n t - q^-n t E^n = (1 + q^-1 + ... + q^-(n-1)) E^(n-1)",
                        witness={"powers": "n <= 4"})]


@dataclass(frozen=True)
class RationalDifferential(Recipe):
    """C[V] with partial derivatives and a finite linear group"""
    n: int
    group: str = "trivial"

    def build(self):
        nf, group = _linear_group(self.group, self.n)
        ring = PolyRing(_names("x", self.n), params=ParamField((), nf))
        return _differential_setting(ring, "rational-differential", group)


@dataclass(frozen=True)
class TrigonometricDifferential(Recipe):
    """Laurent polynomials with Euler operators z d/dz and monomial group"""
    n: int
    group: str = "trivial"

    def build(self):
        n = self.n
        ring = PolyRing(_names("z", n), laurent=(True,) * n, params=ParamField(()))
        elements, names, mult, inv = _enumerate(_Q, n, *_monomial_group_gens(self.group, n))
        subs, conj = _monomial_subs_and_conj(ring, elements, inv)
        inf_gens = [InfGenerator("th%d" % (v + 1), ring, {v: ring.var(v)})
                    for v in range(n)]
        return Setting(ring, name="trigonometric-differential",
                       group_mult=mult, group_inv=inv, group_subs=subs,
                       group_names=names, inf_gens=inf_gens, conj_table=conj)


@dataclass(frozen=True)
class OreFamily(Recipe):
    """k[t] and X = p(t) d/dt, subject to Xt - tX = p(t)"""
    p: tuple  # p(t) = sum p[k] t^k

    def build(self):
        pf = ParamField(())
        ring = PolyRing(("t",), params=pf)
        p = ring.zero
        for k, c in enumerate(self.p):
            p = p + ring.monomial((k,), pf.from_fraction(c))
        if p.is_zero():
            raise ValueError("the Ore polynomial p must be nonzero")
        D = InfGenerator("d", ring, {0: ring.one})
        return Setting(ring, name="ore", inf_gens=[D], meta={"p": p})

    def operators(self, setting):
        return [("X", ore_generator(setting))]

    def identities(self, setting):
        X = ore_generator(setting)
        t = setting.from_ratfunc(setting.ring.var(0))
        p = setting.from_ratfunc(setting.meta["p"])
        return [_report("ore-relation", (X * t - t * X) == p, "Xt - tX = p(t)")]


@dataclass(frozen=True)
class ShiftFlag(Recipe):
    """k[x_1..x_n] with integer shifts x -> x + mu and a permutation group"""
    n: int
    group: str = "trivial"

    def build(self):
        n = self.n
        nf, (elements, names, mult, inv) = _linear_group(self.group, n)
        ring = PolyRing(_names("x", n), params=ParamField((), nf))
        subs = _linear_subs(ring, elements, inv)
        # shifts translate every variable; conjugation permutes coordinates
        xs = [ring.var(v) for v in range(n)]
        perms = []
        for winv in inv:
            images = [subs[winv].get(v, x) for v, x in enumerate(xs)]
            if not all(img in xs for img in images):
                raise ValueError("group does not normalize the shift monoid")
            perms.append(tuple(xs.index(img) for img in images))
        return Setting(ring, name="shift-flag",
                       group_mult=mult, group_inv=inv, group_subs=subs,
                       group_names=names, monoid_vars=tuple(range(n)),
                       monoid_perm=perms)

    def operators(self, setting):
        rank = setting.monoid_rank
        gens = []
        for j in range(rank):
            for sign, suffix in ((1, ""), (-1, "^-1")):
                mu = tuple(sign if k == j else 0 for k in range(rank))
                gens.append(("tau%d%s" % (j + 1, suffix), setting.group_element(0, mu)))
        return gens


# Cartan matrices of the two hard-coded types; row i is the simple root
# alpha_i in the basis of fundamental (co)weights.
_CARTAN = {"A1": ((2,),), "A2": ((2, -1), (-1, 2))}


@dataclass(frozen=True)
class GKVHecke(Recipe):
    """Demazure-Lusztig operators sigma_i = q(u s_i - 1)/(u - 1) - q^-1(s_i - 1)/(u - 1)"""
    cartan: str = "A1"          # "A1" or "A2"
    variant: str = "multiplicative"   # or "additive"

    def build(self):
        if self.cartan not in _CARTAN:
            raise ValueError("unsupported Cartan type %r" % self.cartan)
        if self.variant not in ("multiplicative", "additive"):
            raise ValueError("variant must be multiplicative or additive")
        A = _CARTAN[self.cartan]
        n = len(A)
        pf = ParamField(("q",))
        # s_i = 1 - u v^T with u = alpha_i, v = e_i on the weight lattice
        # (multiplicative), and u = e_i, v = column i of A on the coweight
        # basis (additive)
        e = [[int(r == i) for r in range(n)] for i in range(n)]
        if self.variant == "multiplicative":
            ring = PolyRing(_names("z", n), laurent=(True,) * n, params=pf)
            uv = [(A[i], e[i]) for i in range(n)]
            u_polys = [ring.monomial(A[i]) for i in range(n)]
            suffix = "mult"
        else:
            ring = PolyRing(_names("x", n), params=pf)
            uv = [(e[i], [row[i] for row in A]) for i in range(n)]
            u_polys = [ring.linear(A[i], constant=1) for i in range(n)]
            suffix = "add"
        gens = [tuple(tuple(_Q.from_int(int(r == c) - u[r] * v[c]) for c in range(n))
                      for r in range(n)) for u, v in uv]
        elements, names, mult, inv = _enumerate(_Q, n, gens, _names("s", n))
        subs = (_monomial_subs_and_conj(ring, elements, inv)[0]
                if self.variant == "multiplicative" else _linear_subs(ring, elements, inv))
        return Setting(ring, name="gkv-hecke-%s-%s" % (self.cartan, suffix),
                       group_mult=mult, group_inv=inv, group_subs=subs,
                       group_names=names,
                       meta={"q": pf.param("q"), "hecke_u": u_polys,
                             "simple_reflections": [elements.index(g) for g in gens],
                             "rank": n})

    def operators(self, setting):
        return [("sigma%d" % (i + 1), demazure_lusztig(setting, i))
                for i in range(setting.meta["rank"])]

    def identities(self, setting):
        q = setting.meta["q"]
        qe = setting.from_const(q)
        sigmas = [demazure_lusztig(setting, i) for i in range(setting.meta["rank"])]
        if self.variant == "multiplicative":
            other = setting.from_const(q ** -1)
            law = "(sigma - q)(sigma + q^-1) = 0"
        else:
            other = qe
            law = "(sigma - q)(sigma + q) = 0 (degenerate variant)"
        reports = [_report("hecke-quadratic",
                           all(((s - qe) * (s + other)).is_zero() for s in sigmas), law)]
        if len(sigmas) == 2:
            s1, s2 = sigmas
            reports.append(_report("braid-relation", (s1 * s2 * s1) == (s2 * s1 * s2),
                                   "sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2"))
        return reports


@dataclass(frozen=True)
class Cherednik(Recipe):
    """Dunkl operators D_y = t d/dy + sum_s 2c_s/(1-lambda_s) (alpha_s,y)/alpha_s (s - 1)"""
    n: int
    group: str = "S2"

    def build(self):
        n = self.n
        nf, group = _linear_group(self.group, n)
        elements, names, mult, inv = group

        # reflections: rank(s - 1) = 1
        scalars = ParamField((), nf)
        refl = [i for i in range(1, len(elements))
                if linalg.rank([[scalars.from_nf(x) for x in row]
                                for row in _minus_one(nf, elements[i])]) == 1]
        # conjugacy classes among reflections
        classes = []
        assigned = {}
        for s in refl:
            if s in assigned:
                continue
            orbit = sorted({mult[mult[g][s]][inv[g]] for g in range(len(elements))})
            cls = len(classes)
            classes.append(orbit)
            for x in orbit:
                if x not in refl:
                    raise ValueError("reflection class escapes the reflection set")
                assigned[x] = cls

        params = ("t",) + (("c",) if len(classes) == 1 else
                           tuple("c%d" % (k + 1) for k in range(len(classes))))
        pf = ParamField(params, nf)
        ring = PolyRing(_names("x", n), params=pf)

        # per-reflection data: alpha_s, lambda_s, and the class index
        refl_data = []
        for s in refl:
            # alpha_s is the first nonzero row of s^-1 - 1, and
            # lambda_s = tr(s^-1) - (n - 1) = tr(s^-1 - 1) + 1
            rows = _minus_one(nf, elements[inv[s]])
            col = next(row for row in rows if any(nf.is_nonzero(x) for x in row))
            lead = next(x for x in col if nf.is_nonzero(x))
            leadinv = nf.inv(lead)
            alpha_coeffs = [nf.mul(x, leadinv) for x in col]
            lam = nf.add(_nf_sum(nf, (row[i] for i, row in enumerate(rows))), nf.one)
            if lam == nf.one:
                raise ValueError("detected reflection with eigenvalue 1")
            refl_data.append({
                "element": s,
                "alpha_coeffs": alpha_coeffs,
                "alpha": ring.linear([pf.from_nf(x) for x in alpha_coeffs]),
                "lambda": lam,
                "class": assigned[s],
            })

        return _differential_setting(ring, "cherednik-%s" % self.group, group,
                                     meta={"reflections": refl_data,
                                           "n_classes": len(classes)})

    def operators(self, setting):
        return [("D%d" % (v + 1), dunkl_operator(setting, v))
                for v in range(setting.ring.nvars)]

    def identities(self, setting):
        ds = [dunkl_operator(setting, v) for v in range(setting.ring.nvars)]
        ok = all((a * b - b * a).is_zero() for i, a in enumerate(ds) for b in ds[i + 1:])
        return [_report("dunkl-commutativity", ok, "[D_y, D_y'] = 0")]


RECIPES = {
    "quantum-borel": QuantumBorel,
    "rational-differential": RationalDifferential,
    "trigonometric-differential": TrigonometricDifferential,
    "ore": OreFamily,
    "shift-flag": ShiftFlag,
    "gkv-hecke": GKVHecke,
    "cherednik": Cherednik,
}


def build_setting(recipe):
    """The setting a recipe describes, with ``setting.recipe`` set to it."""
    if not isinstance(recipe, Recipe):
        raise TypeError("unknown recipe %r" % (recipe,))
    if getattr(recipe, "n", 1) < 1:
        raise ValueError("n must be positive, not %d" % recipe.n)
    setting = recipe.build()
    setting.recipe = recipe
    return setting


def standard_generators(setting):
    """A presentation of the natural order in each catalog setting:
    the lattice variables, the group elements, then the distinguished
    operators of its recipe.  Used by the verification drivers."""
    ring = setting.ring
    gens = [(ring.names[v], setting.from_ratfunc(ring.var(v)))
            for v in range(ring.nvars)]
    for w in range(1, setting.group_size):
        gens.append((setting.group_names[w], setting.group_element(w)))
    if setting.recipe is not None:
        gens.extend(setting.recipe.operators(setting))
    return gens


# -- distinguished operators -----------------------------------------------------


def dunkl_operator(setting, direction):
    """D_y for the basis direction y = e_direction of a Cherednik setting."""
    if not isinstance(setting.recipe, Cherednik):
        raise ValueError("not a Cherednik setting")
    ring = setting.ring
    meta = setting.meta
    pf = ring.params
    nf = pf.nf
    t = pf.param("t")
    nclasses = meta["n_classes"]
    cs = [pf.param("c")] if nclasses == 1 else \
        [pf.param("c%d" % (k + 1)) for k in range(nclasses)]
    out = setting.inf_element(direction).scale(RatFunc.of(ring.const(t)))
    for data in meta["reflections"]:
        pairing = data["alpha_coeffs"][direction]
        if not nf.is_nonzero(pairing):
            continue
        lam = data["lambda"]
        factor = pf.from_nf(nf.div(nf.add(pairing, pairing), nf.sub(nf.one, lam)))
        coeff = RatFunc.of(ring.const(cs[data["class"]] * factor)) / RatFunc.of(data["alpha"])
        s_el = setting.group_element(data["element"])
        out = out + (s_el - setting.one()).scale(coeff)
    return out


def demazure_lusztig(setting, i):
    """sigma_i in a GKV Hecke setting (either variant)."""
    if not isinstance(setting.recipe, GKVHecke):
        raise ValueError("not a GKV Hecke setting")
    ring = setting.ring
    q = setting.meta["q"]
    u = RatFunc.of(setting.meta["hecke_u"][i])
    s = setting.group_element(setting.meta["simple_reflections"][i])
    qrf = RatFunc.of(ring.const(q))
    qinv = RatFunc.of(ring.const(q ** -1))
    one = RatFunc.of(ring.one)
    denom = u - one
    a = (qrf * u - qinv) / denom
    b = (qinv - qrf) / denom
    return s.scale(a) + setting.from_ratfunc(b)


def ore_generator(setting):
    """X = p(t) d/dt in an Ore family setting."""
    if not isinstance(setting.recipe, OreFamily):
        raise ValueError("not an Ore setting")
    return setting.inf_element(0).scale(RatFunc.of(setting.meta["p"]))


def quantum_borel_E(setting):
    if not isinstance(setting.recipe, QuantumBorel):
        raise ValueError("not the quantum Borel setting")
    return setting.inf_by_name("E")


# -- groups ---------------------------------------------------------------------


_Q = NumberField.rationals()


def _names(prefix, n):
    return tuple("%s%d" % (prefix, i + 1) for i in range(n))


def _nf_sum(nf, xs):
    total = nf.zero
    for x in xs:
        total = nf.add(total, x)
    return total


def _minus_one(nf, mat):
    """The rows of mat - 1."""
    return [[nf.sub(x, nf.one) if r == c else x for c, x in enumerate(row)]
            for r, row in enumerate(mat)]


def _enumerate(nf, n, gens, gen_names):
    """Closure of n x n generator matrices over nf; returns
    (elements, names, mult, inv)."""
    def mul(a, b):
        cols = tuple(zip(*b))
        return tuple(tuple(_nf_sum(nf, map(nf.mul, row, col)) for col in cols)
                     for row in a)

    identity = tuple(tuple(nf.one if i == j else nf.zero for j in range(n))
                     for i in range(n))
    elements = [identity]
    index = {identity: 0}
    names = ["e"]
    queue = [0]
    while queue:
        i = queue.pop(0)
        for g, gname in zip(gens, gen_names):
            prod = mul(elements[i], g)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
                names.append(gname if i == 0 else names[i] + "*" + gname)
                queue.append(index[prod])
                if len(elements) > MAX_GROUP_ORDER:
                    raise ValueError("group generators do not close within %d elements"
                                     % MAX_GROUP_ORDER)
    size = len(elements)
    mult = [[index[mul(elements[i], elements[j])] for j in range(size)]
            for i in range(size)]
    inv = [0] * size
    for i in range(size):
        inv[i] = next(j for j in range(size) if mult[i][j] == 0)
    return elements, names, mult, inv


class GroupNameError(ValueError):
    """A group name that names no group the catalog can build here."""


def _group_size(name):
    """The l of ``Z<l>`` or the k of ``S<k>``, a positive integer, checked
    against MAX_GROUP_ORDER before any field or group is built."""
    digits = name[1:]
    if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
        raise GroupNameError("%r: %s must be followed by a positive integer"
                             % (name, name[0]))
    k = int(digits)
    # factorial(min(k, MAX)) is k! for k <= MAX and exceeds MAX for k > MAX
    order = k if name[0] in "Zz" else factorial(min(k, MAX_GROUP_ORDER))
    if order > MAX_GROUP_ORDER:
        raise GroupNameError("%r has more than %d elements, the largest order "
                             "the catalog builds" % (name, MAX_GROUP_ORDER))
    return k


def _permutations(name, n):
    """Generator matrices over Q and names of ``S<k>``: the adjacent
    transpositions s1..s(n-1), which requires k = n."""
    k = _group_size(name)
    if k != n:
        raise GroupNameError("%r permutes %d variables, but the recipe has n = %d"
                             % (name, k, n))
    gens = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        gens.append(tuple(tuple(_Q.one if r == swap.get(c, c) else _Q.zero
                                for c in range(n)) for r in range(n)))
    return gens, _names("s", n - 1)


def named_group(name, n):
    """(number_field, generator matrices, generator names) for a group name.

    Names: ``trivial``, ``Z<l>`` (cyclic, scaling the first coordinate by a
    primitive l-th root of unity), ``S<k>`` (permutations; requires k = n).
    """
    name = name.strip()
    if name == "trivial":
        return _Q, [], []
    if name.upper().startswith("Z"):
        order = _group_size(name)
        if order == 1:
            return _Q, [], []
        nf = _Q if order == 2 else NumberField.cyclotomic(order)
        zeta = nf.from_int(-1) if order == 2 else nf.gen()
        mat = tuple(tuple(zeta if i == j == 0 else (nf.one if i == j else nf.zero)
                          for j in range(n)) for i in range(n))
        return nf, [mat], ["g"]
    if name.upper().startswith("S"):
        return (_Q,) + _permutations(name, n)
    raise GroupNameError("%r is not trivial, Z<l> or S<k>" % name)


def _linear_group(name, n):
    """(number field, (elements, names, mult, inv)) of a named linear group."""
    nf, gens, gnames = named_group(name, n)
    return nf, _enumerate(nf, n, gens, gnames)


def _linear_subs(ring, elements, inv):
    """Per group element w, the substitution x_v -> (row v of w^-1) . x."""
    pf = ring.params
    return [{v: ring.linear([pf.from_nf(x) for x in row])
             for v, row in enumerate(elements[inv[i]])} if i else {}
            for i in range(len(elements))]


def _differential_setting(ring, name, group, meta=None):
    """The ring with its partial derivatives and a linear group
    ``(elements, names, mult, inv)`` acting on the variables."""
    elements, names, mult, inv = group
    pf = ring.params
    n = ring.nvars
    inf_gens = [InfGenerator("d%d" % (v + 1), ring, {v: ring.one}) for v in range(n)]
    # w d_g w^-1 = sum_j m[j][g] d_j for the matrix m of w
    conj = {i: {g: [(pf.from_nf(m[j][g]), j) for j in range(n)
                    if pf.nf.is_nonzero(m[j][g])]
                for g in range(n)}
            for i, m in enumerate(elements) if i}
    return Setting(ring, name=name,
                   group_mult=mult, group_inv=inv,
                   group_subs=_linear_subs(ring, elements, inv),
                   group_names=names, inf_gens=inf_gens, conj_table=conj,
                   meta=meta)


def _monomial_group_gens(name, n):
    """Generator matrices over Q and names of a named monomial group."""
    name = name.strip()
    if name == "trivial":
        return [], []
    if name == "inversion":
        return [tuple(tuple(_Q.from_int(-1) if i == j else _Q.zero for j in range(n))
                      for i in range(n))], ["w"]
    if name.upper().startswith("S"):
        return _permutations(name, n)
    raise GroupNameError("%r is not trivial, inversion or S<k>" % name)


def _monomial_subs_and_conj(ring, elements, inv):
    """Substitutions z_i -> z^(column i of A) and Euler conjugation rows of
    A^-1, for matrices A over Q with integer entries."""
    pf = ring.params
    n = ring.nvars
    subs = [{}]
    conj = {}
    for i in range(1, len(elements)):
        a = elements[i]
        subs.append({v: ring.monomial(tuple(int(a[r][v][0]) for r in range(n)))
                     for v in range(n)})
        conj[i] = {g: [(pf.from_nf(x), j) for j, x in enumerate(row) if _Q.is_nonzero(x)]
                   for g, row in enumerate(elements[inv[i]])}
    return subs, conj
