"""Smash-product elements with a left normal form.

An element is a finite sum  f * (w, mu) * E^alpha  with f a rational
function, (w, mu) a group part (finite group element times an abelian
shift), and E^alpha a commuting monomial in the infinitesimal generators.
Three rewriting rules realize the cross relation:

    grouplike   g * a = (g|> a) * g          (substitution)
    primitive   D * a = (D|> a) + a * D      (derivation)
    skew        E * a = (E|> a) + (gamma|> a) * E   (twisted derivation)

plus conjugation tables  w * E * w^-1 = sum c * E'  for moving monomials
past group parts.  Shift parts are assumed to commute with all
infinitesimal generators (true for every translation action used here).

A product forms each term once: each push of E^alpha once per product, each
group image g |> f once per value f (memoised on f), and no product by 1.
The left normal form is unique, so equality compares term by term.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .params import ParamElem
from .polyring import Poly, RatFunc
from .sparse import (Ring, add_into, add_terms, factor, monomial, mul_terms, power,
                     signed_sum)


# The largest group a setting takes, and the catalog builds: S4.  Building
# and validating a setting takes 0.4 s for Cherednik n=4 with S4, but 11 s
# for rational-differential n=5 with S5.
MAX_GROUP_ORDER = 24


GroupPart = namedtuple("GroupPart", "w mu")


class InfGenerator:
    """A primitive or skew-primitive generator acting on the fraction field.

    ``values`` maps variable index -> image under the generator; ``twist``
    is the substitution map (variable index -> Poly) of the twisting
    grouplike (None for honest primitives, which twist by the identity).
    """

    def __init__(self, name, ring, values, twist=None):
        self.name = name
        self.ring = ring
        self.values = {i: RatFunc.of(v) for i, v in values.items()}
        self.twist = twist
        self._mono_cache = {}
        self._zero = RatFunc.of(ring.zero)

    def value_of(self, i):
        return self.values.get(i, self._zero)

    def twist_act(self, rf):
        if self.twist is None:
            return RatFunc.of(rf)
        return RatFunc.of(rf).substitute(self.twist)

    def act(self, value):
        """The (twisted) derivation applied to a Poly or RatFunc."""
        rf = RatFunc.of(value)
        if rf.is_in_lattice():
            return self._act_poly(rf.num)
        num, den = rf.num, rf.den
        # E(n/d) = (E(n) - (gamma(n/d)) E(d)) / d
        gn_over_d = self.twist_act(rf)
        return (self._act_poly(num) - gn_over_d * self._act_poly(den)) / RatFunc.of(den)

    def _act_poly(self, poly):
        out = RatFunc.of(self.ring.zero)
        for e, c in poly.terms.items():
            m = self._act_monomial(e)
            if not m.is_zero():
                out = out + c * m
        return out

    def _act_monomial(self, e):
        if e in self._mono_cache:
            return self._mono_cache[e]
        ring = self.ring
        if not any(e):
            res = self._zero
        else:
            i = next(k for k, x in enumerate(e) if x)
            rest = list(e)
            if e[i] > 0:
                rest[i] -= 1
                head_val = self.value_of(i)
                head_twist = self.twist_act(RatFunc.of(ring.var(i)))
            else:
                rest[i] += 1
                xi_inv = RatFunc.of(ring.monomial(
                    tuple(-1 if j == i else 0 for j in range(ring.nvars))))
                gxi = self.twist_act(RatFunc.of(ring.var(i)))
                head_val = -(gxi.inverse() * self.value_of(i) * xi_inv)
                head_twist = gxi.inverse()
            rest = tuple(rest)
            rest_rf = RatFunc.of(ring.monomial(rest))
            res = head_val * rest_rf + head_twist * self._act_monomial(rest)
        self._mono_cache[e] = res
        return res


class Setting:
    """A concrete (coideal subalgebra, lattice) pair with all action data.

    Group elements are indexed 0..size-1 with index 0 the identity;
    ``group_subs[i]`` maps a variable index to its Poly image under element
    i (a variable left out is fixed).  ``monoid_vars`` lists which variable
    each shift coordinate translates by +1; ``gp_images`` gives the one
    substitution x_v -> (w |> x_v) + mu_v of a group part (w, mu).
    ``monoid_perm[i]`` says how conjugation by element i permutes shift
    coordinates.  ``conj_table[i][g]`` expands w_i * E_g * w_i^{-1} in the
    generator span.
    """

    def __init__(self, ring, name="setting",
                 group_mult=None, group_inv=None, group_subs=None, group_names=None,
                 monoid_vars=(), monoid_perm=None,
                 inf_gens=(), conj_table=None, meta=None):
        self.ring = ring
        self.name = name
        if group_mult is None:
            group_mult = [[0]]
            group_inv = [0]
            group_subs = [{}]
            group_names = ["e"]
        self.group_mult = group_mult
        self.group_inv = group_inv
        self.group_subs = group_subs
        self.group_names = group_names
        self.group_size = len(group_mult)
        if self.group_size > MAX_GROUP_ORDER:
            raise ValueError("a group of %d elements is larger than %d, the largest "
                             "order a setting takes" % (self.group_size, MAX_GROUP_ORDER))
        self.monoid_vars = tuple(monoid_vars)
        self.monoid_rank = len(self.monoid_vars)
        if monoid_perm is None:
            monoid_perm = [tuple(range(self.monoid_rank))] * self.group_size
        self.monoid_perm = monoid_perm
        self.inf_gens = list(inf_gens)
        for a, b in zip(self.inf_gens, self.inf_gens[1:]):
            if a.twist is not None and b.twist is not None and a.twist != b.twist:
                raise ValueError(
                    "two skew generators with distinct twists are not supported")
        self.conj_table = conj_table or {}
        self.meta = meta or {}
        self.recipe = None  # the catalog recipe, set by catalog.build_setting
        self._conj_mono_cache = {}
        self._zero_mu = (0,) * self.monoid_rank
        self._zero_alpha = (0,) * len(self.inf_gens)
        # built once, so that what is memoised on them (jets) is shared
        self.variables = tuple(self.from_ratfunc(ring.var(v)) for v in range(ring.nvars))

    # -- group parts ------------------------------------------------------

    def identity_gp(self):
        return GroupPart(0, self._zero_mu)

    def gp(self, w=0, mu=None):
        return GroupPart(w, tuple(mu) if mu is not None else self._zero_mu)

    def gp_mul(self, a, b):
        w = self.group_mult[a.w][b.w]
        perm = self.monoid_perm[self.group_inv[b.w]]
        mu = tuple(a.mu[perm[i]] + b.mu[i] for i in range(self.monoid_rank))
        return GroupPart(w, mu)

    def gp_inv(self, a):
        wi = self.group_inv[a.w]
        perm = self.monoid_perm[a.w]
        mu = tuple(-a.mu[perm[i]] for i in range(self.monoid_rank))
        return GroupPart(wi, mu)

    def gp_is_identity(self, a):
        return a.w == 0 and not any(a.mu)

    def gp_images(self, a):
        """{v: (w |> x_v) + mu_v} over every variable, for a = (w, mu)."""
        subs = self.group_subs[a.w]
        images = {v: subs[v] if v in subs else self.ring.var(v)
                  for v in range(self.ring.nvars)}
        for j, v in enumerate(self.monoid_vars):
            images[v] = images[v] + a.mu[j]
        return images

    def gp_act(self, a, value):
        """(w, mu) |> f, w after mu, by one substitution; a Poly gives a Poly.
        Memoised on the (immutable) value under (setting, a): settings can
        share a ring.  The image lives exactly as long as the value."""
        if self.gp_is_identity(a):
            return value
        memo = getattr(value, "_memo", None)
        if memo is None:
            memo = value._memo = {}
        image = memo.get((self, a))
        if image is None:
            image = memo[(self, a)] = value.substitute(self.gp_images(a))
        return image

    def gp_name(self, a):
        parts = []
        if a.w or not any(a.mu):
            parts.append(self.group_names[a.w])
        if any(a.mu):
            parts.append("tau%s" % (a.mu,))
        return "*".join(parts)

    # -- infinitesimal conjugation -----------------------------------------

    def conj_gen(self, w, g):
        """w * E_g * w^{-1} as [(coeff, gen index)]."""
        if w == 0:
            return [(self.ring.params.one, g)]
        try:
            return self.conj_table[w][g]
        except (KeyError, IndexError):
            raise ValueError(
                "no conjugation rule for group element %s on generator %s"
                % (self.group_names[w], self.inf_gens[g].name))

    def conj_monomial(self, w, alpha):
        """w * E^alpha * w^{-1} expanded, as {beta: ParamElem}."""
        key = (w, alpha)
        if key in self._conj_mono_cache:
            return self._conj_mono_cache[key]
        ngen = len(self.inf_gens)
        out = {(0,) * ngen: self.ring.params.one}
        for g, k in enumerate(alpha):
            lin = {}
            for cc, g2 in self.conj_gen(w, g):
                add_into(lin, tuple(1 if j == g2 else 0 for j in range(ngen)), cc)
            for _ in range(k):
                out = mul_terms(out, lin)
        self._conj_mono_cache[key] = out
        return out

    # -- elements -----------------------------------------------------------

    def zero(self):
        return SmashElement(self, {})

    def one(self):
        return SmashElement(self, {(self.identity_gp(), self._zero_alpha):
                                   RatFunc.of(self.ring.one)})

    def from_ratfunc(self, value):
        rf = RatFunc.of(value)
        if rf.is_zero():
            return self.zero()
        return SmashElement(self, {(self.identity_gp(), self._zero_alpha): rf})

    def from_const(self, c):
        return self.from_ratfunc(RatFunc.of(self.ring.const(c)))

    def group_element(self, w=0, mu=None):
        gp = self.gp(w, mu)
        return SmashElement(self, {(gp, self._zero_alpha): RatFunc.of(self.ring.one)})

    def inf_element(self, g, power=1):
        alpha = tuple(power if k == g else 0 for k in range(len(self.inf_gens)))
        return SmashElement(self, {(self.identity_gp(), alpha): RatFunc.of(self.ring.one)})

    def inf_by_name(self, name, power=1):
        for g, gen in enumerate(self.inf_gens):
            if gen.name == name:
                return self.inf_element(g, power)
        raise KeyError(name)

    def symmetrizing_idempotent(self):
        inv = self.ring.params.from_fraction(Fraction(1, self.group_size))
        terms = {}
        for w in range(self.group_size):
            terms[(self.gp(w), self._zero_alpha)] = RatFunc.of(self.ring.const(inv))
        return SmashElement(self, terms)

    # -- consistency --------------------------------------------------------

    def validate(self):
        """Exact checks of the declared data (the substitutions on every
        group pair, the conjugation table, an associativity sample); raises
        on inconsistency.  The sample's pairwise products are formed once,
        then (xy)z = x(yz) is checked on every triple."""
        ring = self.ring
        n = self.group_size
        for i in range(n):
            if self.group_mult[0][i] != i or self.group_mult[i][0] != i:
                raise ValueError("group identity is broken")
            if self.group_mult[i][self.group_inv[i]] != 0:
                raise ValueError("group inverses are broken")
        # images[w][v] = w |> x_v; then i |> (j |> x_v) = (ij) |> x_v on every pair
        images = [[self.gp_act(self.gp(w), ring.var(v)) for v in range(ring.nvars)]
                  for w in range(n)]
        for i in range(n):
            for j in range(n):
                lhs = [self.gp_act(self.gp(i), y) for y in images[j]]
                if lhs != images[self.group_mult[i][j]]:
                    raise ValueError("substitution maps are not a homomorphism")
        for w in range(1, n):
            for g in range(len(self.inf_gens)):
                if not self.conj_table:
                    break
                rule = self.conj_gen(w, g)
                gen = self.inf_gens[g]
                winv = self.gp(self.group_inv[w])
                wgp = self.gp(w)
                for v in range(ring.nvars):
                    x = ring.var(v)
                    lhs = self.gp_act(wgp, gen.act(self.gp_act(winv, x)))
                    rhs = RatFunc.of(ring.zero)
                    for c, g2 in rule:
                        rhs = rhs + c * self.inf_gens[g2].act(x)
                    if lhs != rhs:
                        raise ValueError(
                            "conjugation table is wrong at %s, %s"
                            % (self.group_names[w], gen.name))
        # cross-relation consistency: a small associativity sample
        sample = [self.one(), self.variables[0]] if ring.nvars else []
        if n > 1:
            sample.append(self.group_element(1))
        if self.inf_gens:
            sample.append(self.inf_element(0))
        pairs = [[x * y for y in sample] for x in sample]
        for i, x in enumerate(sample):
            for j in range(len(sample)):
                for k, z in enumerate(sample):
                    if pairs[i][j] * z != x * pairs[j][k]:
                        raise ValueError("cross relations are inconsistent")
        return True

    def __repr__(self):
        return "Setting(%s)" % self.name


class SmashElement(Ring):
    """A finite sum of coefficient * group part * infinitesimal monomial.

    ``terms`` maps (group part, alpha) to a nonzero RatFunc; zero
    coefficients are never stored (see ``sparse``).
    """

    __slots__ = ("setting", "terms")

    def __init__(self, setting, terms, _clean=False):
        self.setting = setting
        if _clean:
            self.terms = terms
        else:
            self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    # -- linear structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SmashElement):
            if other.setting is not self.setting:
                raise ValueError("elements live in different settings")
            return other
        if isinstance(other, (RatFunc, Poly)):
            return self.setting.from_ratfunc(other)
        if isinstance(other, (int, Fraction, ParamElem)):
            return self.setting.from_const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SmashElement(self.setting, add_terms(self.terms, other.terms), _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return SmashElement(self.setting, {k: -v for k, v in self.terms.items()},
                            _clean=True)

    def scale(self, value):
        """Left multiplication by a coefficient (an element of L)."""
        rf = RatFunc.of(value) if not isinstance(value, (int, Fraction, ParamElem)) \
            else RatFunc.of(self.setting.ring.const(value))
        return SmashElement(self.setting, {k: rf * v for k, v in self.terms.items()})

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        """The product, pair of terms by pair of terms: E^a1 f2 is pushed once
        per (a1, right term); a factor f1 or conjugation coefficient equal to
        1 is skipped, as x * 1 is structurally x, so the terms are the same."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        S = self.setting
        out = {}
        right = list(other.terms.items())
        pushes = {}
        for (g1, a1), f1 in self.terms.items():
            if a1 not in pushes:
                pushes[a1] = [self._push_left(a1, f2) for _, f2 in right]
            f1_is_one = f1.den.is_one() and f1.num.is_one()
            for ((g2, a2), _), pushed in zip(right, pushes[a1]):
                g = S.gp_mul(g1, g2)
                for beta, c in pushed.items():
                    conj = S.conj_monomial(S.group_inv[g2.w], beta)
                    coeff_base = S.gp_act(g1, c)
                    if not f1_is_one:
                        coeff_base = f1 * coeff_base
                    if coeff_base.is_zero():
                        continue
                    for gamma, e in conj.items():
                        add_into(out, (g, tuple(x + y for x, y in zip(gamma, a2))),
                                 coeff_base if e.is_one() else coeff_base * e)
        return SmashElement(S, out, _clean=True)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        return power(self, n, self.setting.one())

    def _push_left(self, alpha, f):
        """E^alpha * f = sum c_beta * E^beta with coefficients on the left."""
        S = self.setting
        if not any(alpha):
            return {alpha: f}
        j = max(k for k, x in enumerate(alpha) if x)
        rest = tuple(x - (1 if k == j else 0) for k, x in enumerate(alpha))
        gen = S.inf_gens[j]
        out = {}
        derived = gen.act(f)
        if not derived.is_zero():
            out = self._push_left(rest, derived)
        twisted = gen.twist_act(f)
        if not twisted.is_zero():
            for beta, c in self._push_left(rest, twisted).items():
                nb = tuple(x + (1 if k == j else 0) for k, x in enumerate(beta))
                add_into(out, nb, c)
        return out

    def __eq__(self, other):
        """Term by term, as the left normal form is unique and stores no zero:
        the same keys, and coefficients equal by ``RatFunc ==``."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        theirs = other.terms
        return self.terms.keys() == theirs.keys() and \
            all(c == theirs[k] for k, c in self.terms.items())

    # -- the hat map and normal forms -------------------------------------------

    def apply(self, value):
        """The element as an operator on the fraction field.

        Terms are summed by denominator: the numerators over each distinct
        (monic) denominator are added as polynomials first, in first-seen
        order, so k terms over m denominators multiply m, not k, of them.
        """
        S = self.setting
        rf = RatFunc.of(value)
        groups = []  # the terms over each denominator, in first-seen order
        for (g, alpha), coeff in self.terms.items():
            cur = rf
            for j in range(len(alpha) - 1, -1, -1):
                for _ in range(alpha[j]):
                    cur = S.inf_gens[j].act(cur)
                    if cur.is_zero():
                        break
            if cur.is_zero():
                continue
            term = coeff * S.gp_act(g, cur)
            for group in groups:
                if group[0].den == term.den:
                    group.append(term)
                    break
            else:
                groups.append([term])
        out = RatFunc.of(S.ring.zero)
        for first, *rest in groups:
            if rest:  # a lone term is already normalised
                num = sum((t.num for t in rest), first.num)
                first = RatFunc(num) if first.den.is_one() else RatFunc(num, first.den)
            out = out + first
        return out

    def filtration_degree(self):
        if self.is_zero():
            raise ValueError("the zero element has no filtration degree")
        return max(sum(alpha) for (_, alpha) in self.terms)

    def conjugate_by(self, gp):
        """gp * X * gp^{-1}; the shift part must be invertible."""
        S = self.setting
        left = S.group_element(gp.w, gp.mu)
        right = S.group_element(*S.gp_inv(gp))
        return left * self * right

    def __str__(self):
        S = self.setting
        names = [gen.name for gen in S.inf_gens]
        terms = []
        for (g, alpha), c in self.sorted_terms():
            gp = "" if S.gp_is_identity(g) else S.gp_name(g)
            mono = "*".join(m for m in (gp, monomial(names, alpha)) if m)
            terms.append((factor(str(c)), mono))
        return signed_sum(terms)

    def __repr__(self):
        return "SmashElement(%s)" % self
