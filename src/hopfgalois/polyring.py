"""Sparse multivariate (Laurent) polynomials and rational functions.

Main variables carry a per-variable Laurent flag; negative exponents are
legal exactly on flagged variables.  Coefficients live in the parameter
field, so the lattice is (parameter field)[x_1, ..., x_n] with Laurent
support where flagged.  Membership of a fraction in the lattice is decided
exactly: after shifting Laurent monomial factors, divisibility of the
numerator by the denominator is tested with term-ordered long division,
which is a complete test over a domain.  Equality is decided by
cross-multiplication, or over equal denominators by comparing the
numerators, never by comparing stored representations.  A lattice element
built from a polynomial, and a sum or product of lattice elements, is
stored without normalization, which over the denominator 1 would change
nothing.  A sum over two different denominators is taken over the larger
one when one divides the other, which is then their lcm, and over their
product only when neither does.

Substitution images are lattice elements, so substituting into a
polynomial is polynomial arithmetic; only units (monomials, whose
inverses are Laurent monomials) take negative powers.
"""

from __future__ import annotations

from fractions import Fraction

from .params import ParamElem, ParamField
from .sparse import (Field, Ring, add_terms, divide_terms, factor, grlex, monomial,
                     mul_terms, power, signed_sum)


class PolyRing:
    """Main-variable polynomial ring over a parameter field."""

    def __init__(self, var_names, laurent=None, params=None):
        self.names = tuple(var_names)
        self.nvars = len(self.names)
        if laurent is None:
            laurent = (False,) * self.nvars
        self.laurent = tuple(bool(b) for b in laurent)
        self.params = params if params is not None else ParamField()
        self._zero_exp = (0,) * self.nvars
        self.zero = Poly(self, {})
        self.one = Poly(self, {self._zero_exp: self.params.one})

    def var(self, i):
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {exp: self.params.one})

    def monomial(self, exps, coeff=None):
        coeff = self.params.one if coeff is None else coeff
        return Poly(self, {tuple(exps): coeff})

    def const(self, c):
        if isinstance(c, (int, Fraction)):
            c = self.params.from_fraction(c)
        if c.is_zero():
            return self.zero
        return Poly(self, {self._zero_exp: c})

    def linear(self, coeffs, constant=0):
        """sum coeffs[i] * x_i + constant, coefficients from Q or the params."""
        terms = {}
        for i, c in enumerate(coeffs):
            if isinstance(c, (int, Fraction)):
                c = self.params.from_fraction(c)
            if not c.is_zero():
                terms[tuple(1 if j == i else 0 for j in range(self.nvars))] = c
        p = Poly(self, terms)
        if constant:
            p = p + self.const(constant)
        return p

    def monomials_up_to(self, degree, include_negative=False):
        """All monomial exponent tuples with |e_i| summing to <= degree.

        With ``include_negative``, Laurent variables range over [-degree,
        degree]; the bound applies to the sum of absolute exponents.
        Deterministic graded order, constant first.
        """
        out = [self._zero_exp]
        frontier = {self._zero_exp}
        for _ in range(degree):
            nxt = set()
            for e in frontier:
                for i in range(self.nvars):
                    up = list(e)
                    up[i] += 1
                    nxt.add(tuple(up))
                    if include_negative and self.laurent[i]:
                        dn = list(e)
                        dn[i] -= 1
                        nxt.add(tuple(dn))
            frontier = nxt - set(out)
            out.extend(sorted(frontier))
        return out

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.laurent == other.laurent and self.params == other.params)

    def __hash__(self):
        return hash((self.names, self.laurent, self.params))

    def __repr__(self):
        vs = ", ".join(n + ("^±" if l else "") for n, l in zip(self.names, self.laurent))
        return "PolyRing(%s; %r)" % (vs, self.params)


class Poly(Ring):
    """Sparse polynomial; zero coefficients are never stored (see ``sparse``).
    ``terms`` is never written after construction.  ``_memo`` holds values
    derived from it: group images (``Setting.gp_act``) and jets (``taylor_jet``)."""

    __slots__ = ("ring", "terms", "_memo")

    def __init__(self, ring, terms, _clean=False):
        self.ring = ring
        if _clean:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        for e in self.terms:
            for i, x in enumerate(e):
                if x < 0 and not ring.laurent[i]:
                    raise ValueError(
                        "negative exponent on non-Laurent variable %s" % ring.names[i])

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_exp in self.terms)

    def is_one(self):
        c = self.terms.get(self.ring._zero_exp)
        return len(self.terms) == 1 and c is not None and c.is_one()

    def leading(self):
        """(exponent, coeff) maximal in graded lex; requires nonzero."""
        e = max(self.terms, key=grlex)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex(kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("variable registry mismatch between polynomials")
            return other
        if isinstance(other, (int, Fraction, ParamElem)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.ring, add_terms(self.terms, other.terms), _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -v for e, v in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.params.from_fraction(other)
        if isinstance(other, ParamElem):
            # the fast path: scale each coefficient, no exponent sums as in mul_terms
            if other.is_zero():
                return self.ring.zero
            return Poly(self.ring, {e: v * other for e, v in self.terms.items()},
                        _clean=True)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.ring, mul_terms(self.terms, other.terms), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError("negative power of a polynomial that is not a "
                                 "monomial; use RatFunc")
            (e, c), = self.terms.items()
            return Poly(self.ring, {tuple(-x for x in e): c.inverse()}) ** -n
        return power(self, n, self.ring.one)

    def __truediv__(self, other):
        return RatFunc.of(self) / other

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    # -- operations -----------------------------------------------------------

    def substitute(self, images):
        """Replace variable i by images[i], a lattice element (a Poly, or a
        RatFunc in the lattice).  A negative power needs its image's inverse,
        so it raises ``ValueError`` unless the image is a Laurent monomial."""
        ring = self.ring
        imgs = {i: v.as_poly() if isinstance(v, RatFunc) else v
                for i, v in images.items()}
        out = ring.zero
        pow_cache = {}
        for e, c in self.terms.items():
            term = ring.monomial(tuple(0 if i in imgs else x for i, x in enumerate(e)), c)
            for i, x in enumerate(e):
                if x and i in imgs:
                    if (i, x) not in pow_cache:
                        pow_cache[(i, x)] = imgs[i] ** x
                    term = term * pow_cache[(i, x)]
            out = out + term
        return out

    def evaluate(self, point):
        """Value at a point (tuple of ParamElem); Laurent coords must be nonzero."""
        total = self.ring.params.zero
        cache = {}
        for e, c in self.terms.items():
            v = c
            for i, x in enumerate(e):
                if not x:
                    continue
                if (i, x) not in cache:
                    cache[(i, x)] = point[i] ** x
                v = v * cache[(i, x)]
            total = total + v
        return total

    def shift_monomial(self, e):
        return Poly(self.ring,
                    {tuple(a + b for a, b in zip(k, e)): c for k, c in self.terms.items()})

    def min_exponents(self):
        return tuple(min(e[i] for e in self.terms) for i in range(self.ring.nvars))

    def __str__(self):
        return signed_sum((factor(str(c)), monomial(self.ring.names, e))
                          for e, c in self.sorted_terms())

    def __repr__(self):
        return "Poly(%s)" % self


def try_divide(num, den):
    """Exact quotient num/den in the polynomial ring, or None.

    Both arguments may have Laurent support.  A Laurent variable is a unit,
    so the division itself (``sparse.divide_terms``) runs on copies shifted
    to minimum exponent 0 in each Laurent variable, where graded-lex term
    division is a complete divisibility test (a common shift keeps the
    graded-lex order).  Exponent spans (max - min) add under
    multiplication: a smaller span than den's is rejected first.
    """
    ring = num.ring
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return ring.zero
    spans = [[max(col) - min(col) for col in zip(*p.terms)] for p in (num, den)]
    if any(a < b for a, b in zip(*spans)):
        return None
    shift_n, shift_d = ([-x if laurent else 0 for x, laurent in
                         zip(p.min_exponents(), ring.laurent)] for p in (num, den))
    quo = divide_terms(num.shift_monomial(shift_n).terms,
                       den.shift_monomial(shift_d).terms)
    if quo is None:
        return None
    # net shift back: quotient * x^(shift_d - shift_n), on Laurent variables only
    back = tuple(d - n for n, d in zip(shift_n, shift_d))
    return Poly(ring, quo).shift_monomial(back)


class RatFunc(Field):
    """A fraction of polynomials, normalized but compared by cross-multiplication;
    over equal denominators, equality compares the numerators.

    a/d1 + b/d2 is over d2 when d1 divides d2 (and over d1 when d2 divides
    d1), tested by ``try_divide``; otherwise over d1*d2, or 0 over 1 when
    the numerator cancels.  Denominators are never gcd-reduced beyond this.
    """

    __slots__ = ("num", "den", "_memo")  # ``_memo`` as on ``Poly``

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            # a lattice element: normalising over 1 changes nothing
            den = num.ring.one
            _normalized = True
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        ring = num.ring
        if num.is_zero():
            self.num, self.den = ring.zero, ring.one
            return
        num, den = self._cancel_monomials(num, den)
        if not den.is_constant():
            q = try_divide(num, den)
            if q is not None:
                num, den = q, ring.one
        # make the denominator monic in graded lex
        _, lc = den.leading()
        if not lc.is_one():
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @staticmethod
    def _cancel_monomials(num, den):
        ring = num.ring
        nmin = num.min_exponents()
        dmin = den.min_exponents()
        # shared positive monomial factor cancels; Laurent den factors move up
        shift = []
        for i in range(ring.nvars):
            if ring.laurent[i]:
                shift.append(-dmin[i])
            else:
                shift.append(-min(nmin[i], dmin[i]))
        if any(shift):
            num, den = num.shift_monomial(shift), den.shift_monomial(shift)
        return num, den

    @classmethod
    def of(cls, value):
        if isinstance(value, RatFunc):
            return value
        return cls(value)

    @property
    def ring(self):
        return self.num.ring

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_in_lattice(self):
        """True iff the value lies in the (Laurent) polynomial lattice."""
        return self.den.is_one()

    def as_poly(self):
        if not self.is_in_lattice():
            raise ValueError("not a lattice element: %s" % self)
        return self.num

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction, ParamElem)):
            return RatFunc(self.ring.const(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, self.den, _normalized=True)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        # nested denominators: the larger one is the lcm
        q = try_divide(other.den, self.den)
        if q is not None:
            return RatFunc(self.num * q + other.num, other.den)
        q = try_divide(self.den, other.den)
        if q is not None:
            return RatFunc(self.num + other.num * q, self.den)
        num = self.num * other.den + other.num * self.den
        if num.is_zero():
            return RatFunc(num)
        return RatFunc(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, self.den, _normalized=True)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero rational function")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    # -- operations ---------------------------------------------------------------

    def substitute(self, images):
        """``Poly.substitute`` on numerator and denominator; normalises once."""
        return RatFunc(self.num.substitute(images), self.den.substitute(images))

    def evaluate(self, point):
        dv = self.den.evaluate(point)
        if dv.is_zero():
            raise ZeroDivisionError("evaluation hits a denominator zero")
        return self.num.evaluate(point) / dv

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % self


# -- truncated Taylor expansions (jets) ------------------------------------

class Jet:
    """Truncated power series sum c_a h^a, |a| <= order, over the params.
    ``coeffs`` is never written after construction, so a jet can be shared."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order, coeffs):
        self.ring = ring
        self.order = order
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero() and sum(e) <= order}

    def __add__(self, other):
        return Jet(self.ring, self.order, add_terms(self.coeffs, other.coeffs))

    def __mul__(self, other):
        return Jet(self.ring, self.order,
                   mul_terms(self.coeffs, other.coeffs, self.order))

    def scale(self, c):
        return Jet(self.ring, self.order, {e: v * c for e, v in self.coeffs.items()})

    def inverse(self):
        zero_exp = (0,) * self.ring.nvars
        c0 = self.coeffs.get(zero_exp)
        if c0 is None or c0.is_zero():
            raise ZeroDivisionError("jet has no constant term; cannot invert")
        c0inv = c0.inverse()
        rest = Jet(self.ring, self.order,
                   {e: -(v * c0inv) for e, v in self.coeffs.items() if any(e)})
        out = Jet(self.ring, self.order, {zero_exp: self.ring.params.one})
        power = out
        for _ in range(self.order):
            power = power * rest
            if not power.coeffs:
                break
            out = out + power
        return out.scale(c0inv)

    def __pow__(self, n):
        zero_exp = (0,) * self.ring.nvars
        return power(self, n, Jet(self.ring, self.order, {zero_exp: self.ring.params.one}))

    def __getitem__(self, e):
        return self.coeffs.get(tuple(e), self.ring.params.zero)


def point_label(point):
    """The printed coordinates of a point, the key of the jet memo."""
    return tuple(str(c) for c in point)


def taylor_jet(value, point, order, label=None):
    """Jet of a Poly or RatFunc at a point, exact up to total degree ``order``.

    Expansion variables h_i shadow the main variables; the point must avoid
    denominator zeros (and zero coordinates for Laurent variables).
    Memoised on the (immutable) value under the printed point and the
    order: unequal points never print alike.  A caller that expands many
    values at one point passes its ``label``, ``point_label(point)``.
    """
    memo = getattr(value, "_memo", None)
    if memo is None:
        memo = value._memo = {}
    key = (label or point_label(point), order)
    if key in memo:
        return memo[key]
    rf = RatFunc.of(value)
    ring = rf.ring
    params = ring.params
    zero_exp = (0,) * ring.nvars

    def jet_of_poly(poly):
        var_jets = {}
        total = Jet(ring, order, {})
        for e, c in poly.terms.items():
            term = Jet(ring, order, {zero_exp: params.one})
            for i, x in enumerate(e):
                if not x:
                    continue
                if (i, abs(x)) not in var_jets:
                    base = Jet(ring, order, {
                        zero_exp: point[i],
                        tuple(1 if j == i else 0 for j in range(ring.nvars)): params.one,
                    })
                    var_jets[(i, 1)] = base
                    var_jets[(i, abs(x))] = base ** abs(x)
                j = var_jets[(i, abs(x))]
                if x < 0:
                    j = j.inverse()
                term = term * j
            total = total + term.scale(c)
        return total

    memo[key] = jet_of_poly(rf.num) * jet_of_poly(rf.den).inverse()
    return memo[key]
