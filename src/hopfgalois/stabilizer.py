"""Reductors, superfluous-subcoalgebra certificates, and stabilizers.

Everything here works at a point: maximal ideals of codimension one are
given by coordinates in the coefficient tower.  A reductor for a span of
grouplikes mod a point certifies that the span can be reduced away when
completing at the point; the certificate is exact and replayable.
"""

from __future__ import annotations

from functools import partial

from .verify import COUNTEREXAMPLE, VERIFIED, VerificationReport


class PointIdeal:
    """A codimension-one maximal ideal: the kernel of evaluation at a point."""

    def __init__(self, ring, coords):
        self.ring = ring
        out = []
        for i, c in enumerate(coords):
            if not hasattr(c, "field"):
                c = ring.params.from_fraction(c)
            out.append(c)
        self.coords = tuple(out)
        if len(self.coords) != ring.nvars:
            raise ValueError("point needs %d coordinates" % ring.nvars)
        for i, c in enumerate(self.coords):
            if ring.laurent[i] and c.is_zero():
                raise ValueError(
                    "Laurent variable %s cannot vanish at a point" % ring.names[i])

    def evaluate(self, value):
        return value.evaluate(self.coords)

    def __eq__(self, other):
        return (isinstance(other, PointIdeal) and self.ring == other.ring
                and all(a == b for a, b in zip(self.coords, other.coords)))

    def label(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return "PointIdeal%s" % self.label()


def moved_point(setting, gp, point):
    """The point of g(m): coordinates (g^{-1} |> x_i)(p)."""
    images = setting.gp_images(setting.gp_inv(gp))
    return PointIdeal(setting.ring,
                      [img.evaluate(point.coords) for img in images.values()])


def fixes_point(setting, gp, point):
    moved = moved_point(setting, gp, point)
    return all(a == b for a, b in zip(moved.coords, point.coords))


class GrouplikeSpan:
    """A list of distinct group parts spanning a subcoalgebra of the coradical."""

    def __init__(self, setting, members):
        self.setting = setting
        self.members = members  # of GroupPart
        seen = []
        for g in members:
            if g in seen:
                raise ValueError("duplicate grouplike in span")
            seen.append(g)

    def names(self):
        return [self.setting.gp_name(g) for g in self.members]


class Reductor:
    """R = sum_i r_i (x) s_i in (lattice) (x) (lattice)."""

    def __init__(self, pairs):
        if not pairs:
            raise ValueError("a reductor needs at least one pair")
        self.pairs = pairs  # of (Poly, Poly)

    def product(self, other):
        pairs = []
        for r1, s1 in self.pairs:
            for r2, s2 in other.pairs:
                pairs.append((r1 * r2, s1 * s2))
        return Reductor(pairs)

    def counit_value(self, point):
        total = None
        for r, s in self.pairs:
            term = point.evaluate(r) * point.evaluate(s)
            total = term if total is None else total + term
        return total

    def describe(self):
        return [["%s" % r, "%s" % s] for r, s in self.pairs]


def verify_reductor(reductor, span, point):
    """(R2) sum r_i (x |> s_i) = 0 for each spanning grouplike;
    (R1) the counit image sum r_i(p) s_i(p) is nonzero."""
    report = partial(VerificationReport, "reductor")
    setting = span.setting
    ring = setting.ring
    for g in span.members:
        total = ring.zero
        for r, s in reductor.pairs:
            total = total + r * setting.gp_act(g, s)
        if not total.is_zero():
            return report(COUNTEREXAMPLE, {"condition": "R2",
                                           "grouplike": setting.gp_name(g),
                                           "value": str(total)},
                          provenance="a reductor kills the span: "
                                     "sum r_i (x |> s_i) = 0")
    value = reductor.counit_value(point)
    if value.is_zero():
        return report(COUNTEREXAMPLE, {"condition": "R1", "point": point.label()},
                      provenance="a reductor is invertible mod the point on both sides")
    return report(VERIFIED, {"pairs": len(reductor.pairs), "counit": str(value),
                             "point": point.label()},
                  provenance="reductor conditions: R2 annihilation and R1 "
                             "invertibility mod the point")


def find_reductor(span, point):
    """Build the product reductor for a span of grouplikes, or None.

    For each grouplike g moving the point, R_g = 1 (x) a - (g |> a) (x) 1
    with a separating the point from its g^{-1}-translate; a grouplike
    fixing the point means the span is not superfluous there, so None.
    """
    setting = span.setting
    ring = setting.ring
    result = None
    for g in span.members:
        if setting.gp_is_identity(g) or fixes_point(setting, g, point):
            return None
        a = _separating_element(setting, g, point)
        ga = setting.gp_act(g, a)
        rg = Reductor([(ring.one, a), (-ga, ring.one)])
        result = rg if result is None else result.product(rg)
    return result


def _separating_element(setting, g, point):
    """A variable x with x(p) != (g |> x)(p), for a g that moves the point."""
    # point maps compose, psi_{g^-1} o psi_g = id: if g^-1 moves p, g moves a coordinate
    ring = setting.ring
    return next(a for a in map(ring.var, range(ring.nvars))
                if point.evaluate(a) != point.evaluate(setting.gp_act(g, a)))


def full_group_span(setting, monoid_window=0):
    """All group parts with shift coordinates in [-w, w]."""
    mus = [()]
    for _ in range(setting.monoid_rank):
        mus = [m + (k,) for m in mus for k in range(-monoid_window, monoid_window + 1)]
    members = [setting.gp(w, mu) for w in range(setting.group_size)
               for mu in sorted(mus)]
    return GrouplikeSpan(setting, members)


def stab_group(span, point):
    """The sub-span of grouplikes fixing the point; closed under the group laws."""
    setting = span.setting
    fixed = [g for g in span.members if fixes_point(setting, g, point)]
    return GrouplikeSpan(setting, fixed)


def finiteness_predicate(setting, point, monoid_window=3):
    """Is the stabilizer finite-dimensional, so fibers over the point are finite?

    False as soon as an infinitesimal generator is present: the connected
    part it generates never reduces away.  For pure group settings the
    answer is the grouplike stabilizer, reported on the declared shift
    window.
    """
    if setting.inf_gens:
        names = ", ".join(g.name for g in setting.inf_gens)
        return False, ("connected part generated by {%s} is infinite-dimensional; "
                       "the stabilizer contains it entirely" % names)
    span = full_group_span(setting, monoid_window)
    stab = stab_group(span, point)
    note = ""
    if setting.monoid_rank:
        note = (" (shift monoid examined on the window [-%d, %d]^%d)"
                % (monoid_window, monoid_window, setting.monoid_rank))
    return True, ("stabilizer has %d grouplike(s) out of %d examined%s"
                  % (len(stab.members), len(span.members), note))
