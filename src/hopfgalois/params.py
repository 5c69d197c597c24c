"""The coefficient field: rational functions in formal parameters.

Parameters (q, t, c1, ...) are transcendentals over the number field.
A :class:`ParamElem` is a reduced fraction of sparse parameter
polynomials; equality is decided by cross-multiplication, so the stored
representation need not be canonical.  Normalization cancels the common
monomial factor and scalar content, and runs a univariate gcd when both
numerator and denominator live in a single parameter, which keeps the
q-arithmetic of quantum settings tidy.  That gcd is Euclid's algorithm on
coefficient lists with :func:`hopfgalois.numberfield.poly_divmod`, which
also divides numerator and denominator by it.

A sum or product whose operands all have denominator 1 is stored as is,
without normalization: every parameter exponent is non-negative, so over
1 there is no common monomial factor, no gcd and no leading coefficient
to divide by, and normalization would return its input unchanged.  The
inverse of an element with a constant numerator c, den / c over 1, is
stored as is for the same reason.

Arithmetic between elements of two unequal parameter fields raises
``ValueError``, as polynomial arithmetic does across variable registries.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .numberfield import NumberField, poly_divmod
from .sparse import Field, grlex, monomial, signed_sum


def _dict_add(field, a, b):
    out = dict(a)
    for k, v in b.items():
        if k in out:
            s = field.add(out[k], v)
            if field.is_nonzero(s):
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = v
    return out


def _dict_neg(field, a):
    return {k: field.neg(v) for k, v in a.items()}


def _dict_mul(field, a, b):
    if len(a) == 1 and len(b) == 1:
        # most products are of one term by one term: one key, no merging; the
        # product is checked all the same, as m(z) may be reducible
        (ka, va), = a.items()
        (kb, vb), = b.items()
        p = field.mul(va, vb)
        return {tuple(map(add, ka, kb)): p} if field.is_nonzero(p) else {}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            p = field.mul(va, vb)
            if k in out:
                s = field.add(out[k], p)
                if field.is_nonzero(s):
                    out[k] = s
                else:
                    del out[k]
            elif field.is_nonzero(p):
                out[k] = p
    return out


def _dict_scale(field, a, c):
    return {k: field.mul(v, c) for k, v in a.items()}


class ParamField:
    """Context: parameter names over a number field."""

    def __init__(self, names=(), number_field=None):
        self.names = tuple(names)
        self.nf = number_field if number_field is not None else NumberField.rationals()
        self.nparams = len(self.names)
        self._zero_exp = (0,) * self.nparams
        self.zero = ParamElem(self, {}, {self._zero_exp: self.nf.one}, _normalized=True)
        self.one = ParamElem(self, {self._zero_exp: self.nf.one},
                             {self._zero_exp: self.nf.one}, _normalized=True)

    def param(self, name):
        i = self.names.index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.nparams))
        return ParamElem(self, {exp: self.nf.one}, {self._zero_exp: self.nf.one},
                         _normalized=True)

    def from_fraction(self, x):
        x = Fraction(x)
        if x == 0:
            return self.zero
        return ParamElem(self, {self._zero_exp: self.nf.from_fraction(x)},
                         {self._zero_exp: self.nf.one}, _normalized=True)

    def from_int(self, n):
        return self.from_fraction(n)

    def from_nf(self, a):
        if not self.nf.is_nonzero(a):
            return self.zero
        return ParamElem(self, {self._zero_exp: a},
                         {self._zero_exp: self.nf.one}, _normalized=True)

    def __eq__(self, other):
        return (isinstance(other, ParamField) and self.names == other.names
                and self.nf == other.nf)

    def __hash__(self):
        return hash((self.names, self.nf))

    def __repr__(self):
        return "ParamField(%s over %r)" % (", ".join(self.names) or "no params", self.nf)


class ParamElem(Field):
    """A fraction of parameter polynomials.  Immutable."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den, _normalized=False):
        self.field = field
        if _normalized:
            self.num = num
            self.den = den
            return
        if not den:
            raise ZeroDivisionError("zero denominator in parameter field")
        num, den = self._normalize(field, num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalize(field, num, den):
        nf = field.nf
        zexp = field._zero_exp
        if not num:
            return {}, {zexp: nf.one}
        # cancel the common monomial factor
        mins = [min(e[i] for e in num) for i in range(field.nparams)]
        mind = [min(e[i] for e in den) for i in range(field.nparams)]
        shift = tuple(min(a, b) for a, b in zip(mins, mind))
        if any(shift):
            num = {tuple(e[i] - shift[i] for i in range(len(e))): v for e, v in num.items()}
            den = {tuple(e[i] - shift[i] for i in range(len(e))): v for e, v in den.items()}
        num, den = ParamElem._univariate_reduce(field, num, den)
        # make the denominator's leading coefficient 1
        lead = max(den, key=grlex)
        c = den[lead]
        if c != nf.one:
            cinv = nf.inv(c)
            num = _dict_scale(nf, num, cinv)
            den = _dict_scale(nf, den, cinv)
        return num, den

    @staticmethod
    def _univariate_reduce(field, num, den):
        # gcd cancellation when both polys are univariate in the same parameter.
        # Once the common monomial factor is gone, a side with one term c*q^k
        # is coprime to the other: q divides at most one of them.
        if len(num) == 1 or len(den) == 1:
            return num, den
        vs = set()
        for e in list(num) + list(den):
            for i, x in enumerate(e):
                if x:
                    vs.add(i)
        if len(vs) != 1:
            return num, den
        i = vs.pop()
        nf = field.nf

        def to_list(d):
            deg = max(e[i] for e in d)
            out = [nf.zero] * (deg + 1)
            for e, v in d.items():
                out[e[i]] = v
            return out

        def to_dict(lst):
            out = {}
            for k, v in enumerate(lst):
                if nf.is_nonzero(v):
                    e = tuple(k if j == i else 0 for j in range(field.nparams))
                    out[e] = v
            return out

        a, b = to_list(num), to_list(den)
        g, r = a, b
        while r:
            g, r = r, poly_divmod(nf, g, r)[1]
        if len(g) == 1:
            return num, den
        return to_dict(poly_divmod(nf, a, g)[0]), to_dict(poly_divmod(nf, b, g)[0])

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def residue(self, p):
        """This element mod the prime p, an int in [0, p), for a rational
        whose denominator p does not divide; None otherwise, and for every
        element of a field with parameters or over a proper extension of Q."""
        field = self.field
        if field.nparams or field.nf.degree > 1:
            return None
        if not self.num:
            return 0
        (a,), (d,) = self.num[()], self.den[()]
        den = a.denominator * d.numerator
        if den % p == 0:
            return None
        return a.numerator * d.denominator * pow(den, -1, p) % p

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("parameter field mismatch between parameter elements")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nf = self.field.nf
        if self.den == other.den:
            num = _dict_add(nf, self.num, other.num)
            if self.den == self.field.one.den:
                return ParamElem(self.field, num, self.den, _normalized=True)
            return ParamElem(self.field, num, dict(self.den))
        num = _dict_add(nf, _dict_mul(nf, self.num, other.den),
                        _dict_mul(nf, other.num, self.den))
        den = _dict_mul(nf, self.den, other.den)
        return ParamElem(self.field, num, den)

    __radd__ = __add__

    def __neg__(self):
        return ParamElem(self.field, _dict_neg(self.field.nf, self.num), dict(self.den),
                         _normalized=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nf = self.field.nf
        num = _dict_mul(nf, self.num, other.num)
        unit = self.field.one.den
        if self.den == unit and other.den == unit:
            return ParamElem(self.field, num, unit, _normalized=True)
        return ParamElem(self.field, num, _dict_mul(nf, self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero parameter element")
        field, nf = self.field, self.field.nf
        if len(self.num) == 1 and field._zero_exp in self.num:
            # den / c is already normal: its denominator is 1
            c = self.num[field._zero_exp]
            num = dict(self.den) if c == nf.one else _dict_scale(nf, self.den, nf.inv(c))
            return ParamElem(field, num, field.one.den, _normalized=True)
        return ParamElem(field, dict(self.den), dict(self.num))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        nf = self.field.nf
        return _dict_mul(nf, self.num, other.den) == _dict_mul(nf, other.num, self.den)

    # -- display -----------------------------------------------------------

    def _poly_str(self, d):
        nf, names = self.field.nf, self.field.names
        return signed_sum((nf.to_str(d[e]), monomial(names, e))
                          for e in sorted(d, key=grlex, reverse=True))

    def __str__(self):
        ns = self._poly_str(self.num)
        if len(self.den) == 1 and self.field._zero_exp in self.den \
                and self.den[self.field._zero_exp] == self.field.nf.one:
            return ns
        return "(%s)/(%s)" % (ns, self._poly_str(self.den))

    def __repr__(self):
        return "ParamElem(%s)" % self
