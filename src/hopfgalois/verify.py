"""Checkable certificates for the defining axioms of the orders.

Universally quantified axioms ("for all a", "for all X") are checked on
finite monomial bases and generator words up to a declared bound; every
report records the bound, so "verified" always means "verified up to the
stated bound".  Counterexample payloads carry enough data to re-verify on
replay.  A check states its name, bounds and provenance once, as a
``partial`` of ``VerificationReport``; each return adds status and witness.
"""

from __future__ import annotations

from functools import partial

from . import linalg
from .polyring import RatFunc
from .sparse import monomial

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive-at-bound"


class VerificationReport:
    def __init__(self, check, status, witness=None, bounds=None, provenance=""):
        self.check = check
        self.status = status
        self.witness = {} if witness is None else witness
        self.bounds = {} if bounds is None else bounds
        self.provenance = provenance

    def to_dict(self):
        return {
            "check": self.check,
            "status": self.status,
            "witness": self.witness,
            "bounds": self.bounds,
            "provenance": self.provenance,
        }


class OrderPresentation:
    """A candidate order: named generators inside one setting."""

    def __init__(self, setting, generators):
        self.setting = setting
        self.generators = generators  # [(name, SmashElement)]

    def names(self):
        return [n for n, _ in self.generators]

    def elements(self):
        return [x for _, x in self.generators]

    def words(self, length):
        """[(name, element)]: the unit "1", then every product of up to
        ``length`` generators, shortest first, named ``"a*b"``."""
        words = [("1", self.setting.one())]
        layer = list(words)
        for _ in range(length):
            layer = [(gname if wname == "1" else wname + "*" + gname, w * g)
                     for wname, w in layer for gname, g in self.generators]
            words.extend(layer)
        return words


def _monomial_name(ring, exps):
    return monomial(ring.names, exps) or "1"


def preserves_lattice(presentation, degree_bound):
    """Do the generators (and their pairwise products) map the lattice to itself?

    Applies every generator and every product of two generators to each
    monomial of degree <= bound (window [-d, d] on Laurent variables).

    A product XY is never formed: (XY)(f) is computed as X(Y(f)), from the
    images Y(f) kept by the pass over single generators.  The hat map is an
    algebra action, so both are the same rational function, and lattice
    membership does not depend on how it was reached, because every
    ``RatFunc`` is reduced by a complete divisibility test.  The scan order,
    and so the operator and monomial of the first counterexample, is that
    of the expanded products: generators first, then pairs, with monomials
    innermost.

    Most products are decided without that sum.  X is linear over the
    parameter field, so X(Y(f)) = sum c_e X(x^e) over the support of the
    lattice element Y(f) = sum c_e x^e, with parameter scalars c_e.  Each
    generator keeps a memo of whether X(x^e) lies in the lattice, seeded
    from the first pass, which found every window monomial's image there;
    a monomial outside the window is applied once.  If every X(x^e) lies
    in the lattice, so does X(Y(f)).  Only when some X(x^e) leaves the
    lattice is X(Y(f)) computed in full, and that value gives the verdict
    and the printed image.
    """
    S = presentation.setting
    ring = S.ring
    monomials = ring.monomials_up_to(degree_bound, include_negative=True)
    report = partial(VerificationReport, "preserves-lattice",
                     bounds={"degree": degree_bound},
                     provenance="lattice preservation: X(f) stays polynomial "
                                "for polynomial f")

    # images[j][k] = Y_j(f_k), by position: an extra generator may reuse a name
    images = []
    for name, y in presentation.generators:
        row = []
        for exps in monomials:
            image = y.apply(RatFunc.of(ring.monomial(exps)))
            if not image.is_in_lattice():
                return report(COUNTEREXAMPLE, {"operator": name,
                                               "monomial": _monomial_name(ring, exps),
                                               "image": str(image)})
            row.append(image)
        images.append(row)

    def maps_into_lattice(x, memo, e):
        if e not in memo:
            memo[e] = x.apply(RatFunc.of(ring.monomial(e))).is_in_lattice()
        return memo[e]

    for n1, x in presentation.generators:
        memo = dict.fromkeys(monomials, True)  # e -> is X(x^e) in the lattice?
        for (n2, _), row in zip(presentation.generators, images):
            for exps, y_image in zip(monomials, row):
                if all(maps_into_lattice(x, memo, e) for e in y_image.num.terms):
                    continue
                image = x.apply(y_image)
                if not image.is_in_lattice():
                    return report(COUNTEREXAMPLE, {"operator": "%s*%s" % (n1, n2),
                                                   "monomial": _monomial_name(ring, exps),
                                                   "image": str(image)})
    n = len(presentation.generators)
    return report(VERIFIED, {"operators": n + n * n, "monomials": len(monomials)})


def split_decompose(element):
    """X = X(1) + X_-, the projection onto the lattice summand.

    Returns (X(1) as a rational function, X_-); the second component kills 1.
    """
    S = element.setting
    head = element.apply(RatFunc.of(S.ring.one))
    return head, element - S.from_ratfunc(head)


def max_commutative_probe(element, degree_bound):
    """Find a lattice monomial not commuting with X (X must have X_- != 0).

    Witnesses that nothing outside the lattice commutes with the whole
    lattice: evaluates [X, a] at 1 for monomials a of degree <= bound.
    """
    report = partial(VerificationReport, "max-commutative-probe",
                     bounds={"degree": degree_bound},
                     provenance="the lattice is maximal commutative: a non-lattice "
                                "element fails to commute with some lattice element")
    S = element.setting
    ring = S.ring
    _, minus = split_decompose(element)
    if minus.is_zero():
        raise ValueError("the element lies in the lattice; nothing to probe")
    one = RatFunc.of(ring.one)
    for exps in ring.monomials_up_to(degree_bound, include_negative=True):
        if not any(exps):
            continue
        a = S.from_ratfunc(ring.monomial(exps))
        val = (element * a - a * element).apply(one)
        if not val.is_zero():
            return report(VERIFIED, {"monomial": _monomial_name(ring, exps),
                                     "commutator-at-1": str(val)})
    return report(INCONCLUSIVE)


def normal_form_keys(elements):
    """The sorted (group part, exponents) keys of all the elements' terms."""
    return sorted({k for x in elements for k in x.terms})


def fo_certificate(elements, degree_bound):
    """Evaluation-points certificate of left linear independence.

    Scans lattice monomials in graded order (constant first), greedily
    keeping columns a_j that increase the rank of (X_i(a_j)): one echelon
    form of the kept columns grows by ``linalg.extend``.  Succeeds when the
    square matrix turns nonsingular and returns its exact determinant.
    """
    report = partial(VerificationReport, "fo-certificate",
                     bounds={"degree": degree_bound},
                     provenance="independent elements admit lattice points with "
                                "det(X_i(a_j)) nonzero")
    if not elements:
        raise ValueError("need at least one element")
    S = elements[0].setting
    ring = S.ring
    n = len(elements)
    chosen, columns, echelon, pivots = [], [], [], []
    for exps in ring.monomials_up_to(degree_bound, include_negative=True):
        m = RatFunc.of(ring.monomial(exps))
        col = [x.apply(m) for x in elements]
        if linalg.extend(echelon, pivots, col):
            columns.append(col)
            chosen.append(exps)
            if len(columns) == n:
                matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
                d = linalg.det(matrix)
                return report(VERIFIED, {
                    "monomials": [_monomial_name(ring, e) for e in chosen],
                    "determinant": str(d)})
    return report(INCONCLUSIVE, {"rank-reached": len(columns), "needed": n})


def generation_witness(presentation, word_length=2):
    """Each group element and infinitesimal generator is an L-combination of
    generator words: the sufficient witness that the order spans the whole
    smash product over the fraction field.

    Solves exactly over the fraction field, one elimination of the sparse
    word columns for all targets; inconclusive-at-bound, naming the first
    target outside the words' span, when the word pool is too short.
    """
    report = partial(VerificationReport, "generation-witness",
                     bounds={"word-length": word_length},
                     provenance="every coideal generator is reachable as an "
                                "L-combination of order elements")
    S = presentation.setting
    words = presentation.words(word_length)
    targets = []
    for w in range(1, S.group_size):
        targets.append((S.group_names[w], S.group_element(w)))
    for j, gen in enumerate(S.inf_gens):
        targets.append((gen.name, S.inf_element(j)))
    if not targets:
        return report(VERIFIED, {"note": "no coideal generators beyond the lattice"})
    keys = normal_form_keys([w for _, w in words] + [t for _, t in targets])
    rows = [{j: w.terms[k] for j, (_, w) in enumerate(words) if k in w.terms}
            for k in keys]
    sols = linalg.solve(rows, len(words), [
        {i: t.terms[k] for i, k in enumerate(keys) if k in t.terms}
        for _, t in targets])
    combos = {}
    for (tname, _), sol in zip(targets, sols):
        if sol is None:
            return report(INCONCLUSIVE, {"unreached": tname})
        combos[tname] = [[words[j][0], str(c)] for j, c in sol.items()]
    return report(VERIFIED, {"combinations": combos})


def weight_fiber_witness(presentation, point):
    """The fiber at a maximal ideal is nonzero: X -> X(1) mod the ideal is onto.

    Evaluates the lattice component of 1 and of every generator at the
    point; the image of 1 is the witness that the quotient is nonzero.
    """
    S = presentation.setting
    one = RatFunc.of(S.ring.one)
    psi_one = S.one().apply(one).evaluate(point.coords)
    values = {}
    for name, g in presentation.generators:
        values[name] = str(g.apply(one).evaluate(point.coords))
    status = VERIFIED if not psi_one.is_zero() else COUNTEREXAMPLE
    return VerificationReport(
        "weight-fiber-witness", status,
        witness={"psi(1)": str(psi_one), "generators": values,
                 "point": point.label()},
        provenance="X -> X(1) evaluated at the point is onto the residue field, "
                   "so the fiber module is nonzero")
