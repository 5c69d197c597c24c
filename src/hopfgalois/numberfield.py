"""Exact scalars: rationals, optionally extended by one algebraic number.

A :class:`NumberField` is Q[z]/(m(z)) for a monic integer polynomial m,
assumed irreducible (the caller's contract; small degrees get a rational
root check, and a reducible m surfaces later as a zero-divisor error on
inversion).  Field elements are plain tuples of ``Fraction`` of length
deg(m), always reduced mod m, so tuple equality and hashing are the
semantic ones.  Degree 1 is plain Q with elements ``(Fraction,)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ZeroDivisorError(ArithmeticError):
    """Inversion hit a zero divisor; the minimal polynomial is reducible."""


def _polydiv(a, b):
    # division with remainder in Q[z]; a, b lists of Fraction, b != 0
    a = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
        db -= 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        c = a[-1] / b[-1]
        k = len(a) - 1 - db
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        a.pop()
    return q, a


class NumberField:
    """Arithmetic context for Q[z]/(m(z)).  Elements are Fraction tuples."""

    def __init__(self, min_poly=(0, 1), gen_name="zeta"):
        mp = tuple(Fraction(c) for c in min_poly)
        if len(mp) < 2 or mp[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.min_poly = mp
        self.degree = len(mp) - 1
        self.gen_name = gen_name
        self.zero = (Fraction(0),) * self.degree
        self.one = (Fraction(1),) + (Fraction(0),) * (self.degree - 1)
        if self.degree > 1:
            self._check_no_rational_root()

    @classmethod
    def rationals(cls):
        return cls((0, 1))

    @classmethod
    def cyclotomic(cls, n, gen_name="zeta"):
        """Q adjoined a primitive n-th root of unity (n-th cyclotomic poly)."""
        return cls(tuple(cls._cyclotomic_coeffs(n)), gen_name=gen_name)

    @staticmethod
    def _cyclotomic_coeffs(n):
        """Coefficients of the n-th cyclotomic polynomial, constant first."""
        poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # z^n - 1
        for d in range(1, n):
            if n % d == 0:
                sub = NumberField._cyclotomic_coeffs(d)
                poly, rem = _polydiv(poly, sub)
                assert not any(rem)
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        return poly

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
        return (Fraction(x),) + (Fraction(0),) * (self.degree - 1)

    def from_int(self, n):
        return self.from_fraction(n)

    def gen(self):
        """The class of z (requires degree >= 2)."""
        if self.degree < 2:
            raise ValueError("prime field has no algebraic generator")
        return (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2)

    def element(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return tuple(cs)

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.degree == 1:
            return (a[0] + b[0],)
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        if self.degree == 1:
            return (a[0] - b[0],)
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.degree == 1:
            return (a[0] * b[0],)
        prod = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return tuple(self._reduce(prod))

    def _reduce(self, coeffs):
        m = self.min_poly
        d = self.degree
        cs = list(coeffs)
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for j in range(d + 1):
                    cs[i - d + j] -= c * m[j]
        cs = cs[:d]
        cs += [Fraction(0)] * (d - len(cs))
        return cs

    def inv(self, a):
        if not self.is_nonzero(a):
            raise ZeroDivisionError("inverting zero in number field")
        if self.degree == 1:
            return (1 / a[0],)
        # extended Euclid: find u with u*a = 1 mod m
        r0, r1 = list(self.min_poly), list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _polydiv(r0, r1)
            r0, r1 = r1, r
            qs1 = self._plain_mul(q, s1)
            s0, s1 = s1, [x - y for x, y in
                          zip(s0 + [Fraction(0)] * max(0, len(qs1) - len(s0)),
                              qs1 + [Fraction(0)] * max(0, len(s0) - len(qs1)))]
        while len(r0) > 1 and r0[-1] == 0:
            r0.pop()
        if len(r0) > 1:
            raise ZeroDivisorError(
                "gcd with minimal polynomial is nonconstant; element is a zero divisor")
        c = r0[0]
        return self.element([x / c for x in s0])

    @staticmethod
    def _plain_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return out

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
        parts = []
        for i, c in enumerate(a):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = self.gen_name if i == 1 else "%s^%d" % (self.gen_name, i)
                if c == 1:
                    parts.append(head)
                elif c == -1:
                    parts.append("-" + head)
                else:
                    parts.append("%s*%s" % (c, head))
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        if self.degree == 1:
            return "NumberField(Q)"
        return "NumberField(Q[%s]/(deg %d))" % (self.gen_name, self.degree)
