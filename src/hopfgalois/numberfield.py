"""Exact scalars: rationals, optionally extended by one algebraic number.

A :class:`NumberField` is Q[z]/(m(z)) for a monic integer polynomial m,
assumed irreducible (the caller's contract; small degrees get a rational
root check, and a reducible m surfaces later as a zero-divisor error on
inversion).  Field elements are plain tuples of exact rationals of length
deg(m), always reduced mod m, so tuple equality and hashing are the
semantic ones.  A component is an ``int`` or a ``Fraction``: the
constructors, ``add``, ``sub``, ``mul`` and ``inv`` store an integral
rational as an ``int``, whose arithmetic is cheaper (the two compare, hash
and print alike).  Every division is a ``Fraction`` division, so no
component is ever a float.
Degree 1 is plain Q with one-component elements.  The class of z prints
as ``zeta``, and an irrational element as a parenthesised sum in rising
powers, ``(-1 + 1/2*zeta^3)``, through the printer of
:mod:`hopfgalois.sparse`.

:func:`poly_divmod` is the one long division of univariate polynomials
over such a field.  It serves the cyclotomic polynomials and the inverse
here (over Q) and the one-parameter gcd of :mod:`hopfgalois.params`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .sparse import monomial, signed_sum


def _exact(x):
    """The rational x as an int when it is integral, else as it is."""
    if type(x) is int:  # most results: cheaper than reading its denominator
        return x
    return x.numerator if x.denominator == 1 else x


class ZeroDivisorError(ArithmeticError):
    """Inversion hit a zero divisor; the minimal polynomial is reducible."""


def poly_divmod(field, a, b):
    """Long division in field[x]: ``(q, r)`` with a = q*b + r, deg r < deg b.

    Polynomials are lists of field elements, constant term first; Q is
    ``NumberField.rationals()``.  Trailing zeros of a and b are ignored,
    and q and r come back without them, so the zero polynomial is ``[]``.
    """
    nonzero, mul, sub = field.is_nonzero, field.mul, field.sub
    db = len(b) - 1
    while db >= 0 and not nonzero(b[db]):
        db -= 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.inv(b[db])
    support = [(j, b[j]) for j in range(db) if nonzero(b[j])]
    r = list(a)
    while r and not nonzero(r[-1]):
        r.pop()
    q = [field.zero] * (len(r) - db)
    while len(r) > db:
        c = mul(r.pop(), lead_inv)
        k = len(r) - db
        q[k] = c
        for j, bj in support:
            r[k + j] = sub(r[k + j], mul(c, bj))
        while r and not nonzero(r[-1]):
            r.pop()
    return q, r


class NumberField:
    """Arithmetic context for Q[z]/(m(z)).  Elements are tuples of ints and
    Fractions (see the module docstring)."""

    gen_name = "zeta"  # how z prints

    def __init__(self, min_poly=(0, 1)):
        mp = tuple(_exact(Fraction(c)) for c in min_poly)
        if len(mp) < 2 or mp[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.min_poly = mp
        self.degree = len(mp) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + (0,) * (self.degree - 1)
        if self.degree > 1:
            self._check_no_rational_root()

    @classmethod
    def rationals(cls):
        return cls((0, 1))

    @classmethod
    def cyclotomic(cls, n):
        """Q adjoined a primitive n-th root of unity (n-th cyclotomic poly)."""
        return cls(tuple(cls._cyclotomic_coeffs(n)))

    @staticmethod
    def _cyclotomic_coeffs(n):
        """Coefficients of the n-th cyclotomic polynomial, constant first."""
        Q = NumberField.rationals()
        poly = [Q.from_int(-1)] + [Q.zero] * (n - 1) + [Q.one]  # z^n - 1
        for d in range(1, n):
            if n % d == 0:
                sub = [(c,) for c in NumberField._cyclotomic_coeffs(d)]
                poly, rem = poly_divmod(Q, poly, sub)
                assert not rem
        return [c for (c,) in poly]

    def _check_no_rational_root(self):
        # rational root theorem on the integer-scaled polynomial
        den = 1
        for c in self.min_poly:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.min_poly]
        a0, an = ints[0], ints[-1]
        if a0 == 0:
            raise ValueError("minimal polynomial has root 0, not irreducible")
        for p in range(1, abs(a0) + 1):
            if a0 % p:
                continue
            for q in range(1, abs(an) + 1):
                if an % q:
                    continue
                for sgn in (1, -1):
                    r = Fraction(sgn * p, q)
                    if sum(c * r ** i for i, c in enumerate(ints)) == 0:
                        raise ValueError(
                            "minimal polynomial has rational root %s" % r)

    # -- element constructors -------------------------------------------

    def from_fraction(self, x):
        return (_exact(Fraction(x)),) + (0,) * (self.degree - 1)

    def from_int(self, n):
        return self.from_fraction(n)

    def gen(self):
        """The class of z (requires degree >= 2)."""
        if self.degree < 2:
            raise ValueError("prime field has no algebraic generator")
        return (0, 1) + (0,) * (self.degree - 2)

    def element(self, coeffs):
        cs = [_exact(Fraction(c)) for c in coeffs]
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        cs += [0] * (self.degree - len(cs))
        return tuple(cs)

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.degree == 1:
            return (_exact(a[0] + b[0]),)
        return tuple(_exact(x + y) for x, y in zip(a, b))

    def sub(self, a, b):
        if self.degree == 1:
            return (_exact(a[0] - b[0]),)
        return tuple(_exact(x - y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.degree == 1:
            return (_exact(a[0] * b[0]),)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return tuple(map(_exact, self._reduce(prod)))

    def _reduce(self, coeffs):
        # Not poly_divmod: this is the kernel of every mul, and reducing mod
        # the fixed monic m on bare rationals needs no quotient, no leading
        # inverse and no field-element tuples.
        m = self.min_poly
        d = self.degree
        cs = list(coeffs)
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for j in range(d + 1):
                    cs[i - d + j] -= c * m[j]
        cs = cs[:d]
        cs += [0] * (d - len(cs))
        return cs

    def inv(self, a):
        if not self.is_nonzero(a):
            raise ZeroDivisionError("inverting zero in number field")
        if self.degree == 1:
            return (_exact(Fraction(1) / a[0]),)
        # extended Euclid in Q[z] on m and a, keeping the cofactor s of each
        # remainder r (s*a = r mod m) as a field element
        Q = NumberField.rationals()
        r0, r1 = [(c,) for c in self.min_poly], [(c,) for c in a]
        s0, s1 = self.zero, self.one
        while r1:
            q, r = poly_divmod(Q, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(self.element([c for (c,) in q]), s1))
        if any(c for (c,) in r0[1:]):
            raise ZeroDivisorError(
                "gcd with minimal polynomial is nonconstant; element is a zero divisor")
        c = Fraction(r0[0][0])
        return tuple(_exact(x / c) for x in s0)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def is_nonzero(self, a):
        return any(a)

    def is_rational(self, a):
        return not any(a[1:])

    def to_str(self, a):
        if self.degree == 1 or self.is_rational(a):
            return str(a[0])
        return "(%s)" % signed_sum((str(c), monomial((self.gen_name,), (i,)))
                                   for i, c in enumerate(a) if c)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        if self.degree == 1:
            return "NumberField(Q)"
        return "NumberField(Q[%s]/(deg %d))" % (self.gen_name, self.degree)
