"""The sparse-term kernel shared by every finite sum in the package, and
how such a sum prints.

A polynomial (exponent -> coefficient), a smash-product element
((group part, alpha) -> coefficient), a jet and a local distribution
(multi-index -> coefficient) are all dicts from keys to coefficients that
carry ``+``, ``*`` and ``is_zero()``.  This module owns their invariant:
zero coefficients are never stored.

Order contract.  Coefficient representations are not canonical (two
rational functions can be equal and print differently), so the order of
additions is part of the result.  Every function here therefore keeps the
caller's order exactly:

* new keys are appended in the order their first term arrives;
* each term is added on the right of the running sum, ``sum + term``;
* a key whose running sum cancels is deleted at once; if a later term
  brings it back, that term is stored as is and the key goes to the end.

The loops are written out in ``add_terms`` and ``mul_terms`` rather than
calling ``add_into`` per term: ``Poly.__mul__`` runs through here millions
of times.

Division.  ``divide_terms`` is the one multivariate long division: the
exact quotient of two such dicts with non-negative exponents, or None,
returned at the first quotient term that no exact quotient has.
``polyring.try_divide`` runs it on Laurent polynomials shifted to
non-negative exponents.

Operators.  ``Ring`` and ``Field`` define the operators that follow from
the others once, for ``ParamElem``, ``Poly``, ``RatFunc`` and
``SmashElement``.  A subclass supplies ``+``, unary ``-``, ``*``, ``==``
and ``_coerce(other)``, which lifts an operand of a type it knows into the
subclass and returns ``NotImplemented`` for any other, so that Python
hands a mixed expression such as ``poly - smash`` to the other operand's
reflected operator.  ``Ring`` adds ``a - b = a + (-b)`` and ``b - a =
(-a) + b``; ``Field`` adds ``a / b = a * b.inverse()``, ``b / a =
a.inverse() * b`` and ``a ** n``, with a negative ``n`` through
``inverse``.

Printing.  Parameter polynomials, main-variable polynomials and
number-field elements all print as a signed sum of ``coeff*monomial``
terms in the order the caller gives (``grlex`` descending, or by power):
``monomial`` names an exponent tuple and ``signed_sum`` joins the terms.
"""

from __future__ import annotations

from operator import add


def add_into(out, key, value):
    """out[key] += value in place, dropping the key if the sum is zero."""
    if key in out:
        s = out[key] + value
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
    elif not value.is_zero():
        out[key] = value


def add_terms(a, b):
    """The sum a + b as a new dict; ``b`` must store no zeros."""
    out = dict(a)
    for k, v in b.items():
        if k in out:
            s = out[k] + v
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        else:
            out[k] = v
    return out


def mul_terms(a, b, max_degree=None):
    """The product a * b as a new dict: exponent tuples add, coefficients multiply.

    Products whose exponent sum exceeds ``max_degree`` are skipped (a
    truncated power series); ``None`` keeps them all.
    """
    out = {}
    b_items = b.items()
    for e1, v1 in a.items():
        for e2, v2 in b_items:
            e = tuple(map(add, e1, e2))
            if max_degree is not None and sum(e) > max_degree:
                continue
            p = v1 * v2
            if e in out:
                s = out[e] + p
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            elif not p.is_zero():
                out[e] = p
    return out


def divide_terms(num, den):
    """The exact quotient num / den of two polynomials, or None if den does
    not divide num.

    Both are nonzero dicts from exponent tuples, every exponent at least 0,
    to field coefficients with ``+``, unary ``-``, ``*``, ``/``,
    ``is_zero()`` and ``is_one()``.  This is long division on the
    ``grlex``-leading term, a complete test over a domain.  Its quotient
    terms come in falling ``grlex`` order, so it stops at the first one
    that an exact quotient cannot have: one with a negative exponent, or
    one of total degree below lowdeg(num) - lowdeg(den), where lowdeg is
    the least total degree of a term (the lowest homogeneous part of a
    product is the product of the lowest parts).  The leading term of each
    step cancels by construction and is dropped without forming it; a
    leading coefficient 1 divides nothing.
    """
    dlead = max(den, key=grlex)
    dcoeff = den[dlead]
    monic = dcoeff.is_one()
    rest = [(e, c) for e, c in den.items() if e != dlead]
    low = min(map(sum, num)) - min(map(sum, den))
    work = dict(num)
    quo = {}
    while work:
        e = max(work, key=grlex)
        qe = tuple(a - b for a, b in zip(e, dlead))
        if sum(qe) < low or any(x < 0 for x in qe):
            return None
        c = work.pop(e)
        qc = c if monic else c / dcoeff
        quo[qe] = qc
        neg = -qc
        for de, dc in rest:
            add_into(work, tuple(map(add, qe, de)), neg * dc)
    return quo


def power(base, n, one):
    """base ** n for n >= 0 by square-and-multiply; ``one`` is the unit."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Ring:
    """Subtraction from ``+``, unary ``-`` and the subclass's ``_coerce``."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


class Field(Ring):
    """Division and integer powers from ``*`` and ``inverse``."""

    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self._coerce(1))


def grlex(exps):
    """Graded lexicographic sort key of an exponent tuple."""
    return (sum(exps), exps)


def monomial(names, exps):
    """``x*y^2`` for names ("x", "y") and exponents (1, 2); "" for all zeros."""
    return "*".join(n if x == 1 else "%s^%d" % (n, x) for n, x in zip(names, exps) if x)


def factor(text):
    """A coefficient string as a factor: bracketed if it is a sum or a fraction."""
    return "(%s)" % text if "/" in text or " " in text else text


def signed_sum(terms):
    """Print (coefficient string, monomial string) pairs as a sum.

    A coefficient of 1 or -1 in front of a monomial is dropped to its sign,
    an empty monomial prints the bare coefficient, and ``+ -`` becomes ``-``.
    The empty sum is "0".
    """
    parts = []
    for cs, mono in terms:
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append("%s*%s" % (cs, mono))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
