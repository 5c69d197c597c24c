"""Truncated modules of local distributions and canonical simple quotients.

A distribution is a finitely supported functional on the lattice built
from Taylor coefficients at points: the table entry (p, a) -> c means
c * (the coefficient functional f -> jet of f at p, index a).  The
opposite algebra acts by (X xi)(f) = xi(X(f)) = (xi o L)(f), pulled back
along the maps L of jets that a term's parts induce: multiplication by the
coefficient's jet, composition with the group images' jets (which moves
the point) and the derivations of untwisted primitives.  Everything is
exact; jets are truncated at a declared order, and any dropped nonzero
coefficient raises a flag that is reported, never silently discarded.

One closure loop, ``_closure`` (a span closed under matrices), serves the
generation test of local finiteness and the simple quotient, which divides
out the common kernel of the character row's closure under the transposed
action matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb

from . import linalg
from .polyring import Jet, taylor_jet
from .sparse import add_into, add_terms, factor, monomial, signed_sum
from .stabilizer import PointIdeal, full_group_span, stab_group
from .verify import COUNTEREXAMPLE, VERIFIED, VerificationReport


class ModuleInputError(ValueError):
    """The module cannot be built from these inputs: a coefficient has a
    pole at a support point the module reaches, or the support points
    outgrow the orbit window."""


class DistributionVector:
    """A finitely supported functional on the lattice."""

    def __init__(self, ring, entries=()):
        self.ring = ring
        self.entries = []  # [(coords tuple, {index: ParamElem})]
        for coords, table in entries:
            self._merge(coords, table)

    def _merge(self, coords, table):
        table = {a: c for a, c in table.items() if not c.is_zero()}
        if not table:
            return
        for i, (p, tab) in enumerate(self.entries):
            if all(a == b for a, b in zip(p, coords)):
                tab = add_terms(tab, table)
                if tab:
                    self.entries[i] = (p, tab)
                else:
                    del self.entries[i]
                return
        self.entries.append((tuple(coords), table))

    @classmethod
    def evaluation(cls, ring, coords):
        """The algebra character f -> f(p)."""
        zero_idx = (0,) * ring.nvars
        return cls(ring, [(tuple(coords), {zero_idx: ring.params.one})])

    def is_zero(self):
        return not self.entries

    def scale(self, c):
        return DistributionVector(
            self.ring, [(p, {a: v * c for a, v in tab.items()})
                        for p, tab in self.entries])

    def __add__(self, other):
        out = DistributionVector(self.ring, self.entries)
        for p, tab in other.entries:
            out._merge(p, tab)
        return out

    def __sub__(self, other):
        return self + other.scale(self.ring.params.from_fraction(-1))

    def __eq__(self, other):
        return (self - other).is_zero()

    def __str__(self):
        """``c*delta[(p);x^a]``: c times the coefficient of h^a in the jet at p."""
        terms = []
        for p, tab in self.entries:
            plabel = ",".join(str(c) for c in p)
            for a in sorted(tab):
                index = monomial(self.ring.names, a)
                terms.append((factor(str(tab[a])),
                              "delta[(%s)%s]" % (plabel, ";" + index if index else "")))
        return signed_sum(terms)


def _pull_back(ring, table, order, image):
    """The functional sum_a T[a] [h^a] composed with a linear map L on jets:
    T'[b] = sum_a T[a] * L(h^b)[a] for |b| <= order, where ``image(b)`` is
    the jet L(h^b).  Each T'[b] adds its terms in the order of T."""
    out = {}
    for b in ring.monomials_up_to(order):
        terms = image(b).coeffs
        for a, c in table.items():
            if a in terms:
                add_into(out, b, c * terms[a])
    return out


def _times(jet, e):
    """jet * h^e, truncated at the jet's order."""
    return Jet(jet.ring, jet.order,
               {tuple(x + y for x, y in zip(a, e)): c for a, c in jet.coeffs.items()})


def _lower(e, v):
    """The exponent e - e_v."""
    return tuple(x - (k == v) for k, x in enumerate(e))


def distribution_action(element, xi, jet_order):
    """The opposite-algebra action (X xi)(f) = xi(X(f)), truncated at jet_order.

    For a term c g E^alpha and an entry xi = sum_a T[a] [h^a] at p, X xi is
    xi o L for three maps of jets applied in turn: multiplication by the jet
    of c at p; composition with the group images' jets at p, which moves
    the support to q, the images' values at p; and each derivation E at q.

    Returns (vector, leaked): ``leaked`` reports that a nonzero coefficient
    beyond the jet order was dropped.  Twisted (skew-primitive) generators
    spread support along their twist orbit and are not handled here.  A
    coefficient with a pole at a support point raises ``ModuleInputError``.
    """
    S = element.setting
    ring = S.ring
    if any(power and S.inf_gens[j].twist is not None
           for _, alpha in element.terms for j, power in enumerate(alpha)):
        raise NotImplementedError("distribution transport is implemented for "
                                  "grouplike, shift, and primitive parts only")
    result = DistributionVector(ring, [])
    leaked = False
    for (gp, alpha), coeff in element.sorted_terms():
        for coords, table in xi.entries:
            order = max(sum(a) for a in table)
            if coeff.den.evaluate(coords).is_zero():
                raise ModuleInputError("has a pole at %s"
                                       % PointIdeal(ring, coords).label())
            jc = taylor_jet(coeff, coords, order)
            tab = _pull_back(ring, table, order, lambda b: _times(jc, b))
            if not tab:
                continue
            q = coords
            if not S.gp_is_identity(gp):
                imgs = list(S.gp_images(gp).values())
                q = tuple(img.evaluate(coords) for img in imgs)
                # h^b -> psi^b, psi the images' jets less constants (the support
                # moves to q); psi^b = psi^(b - e_v) psi_v, v last with b_v > 0
                oo = max(sum(a) for a in tab)
                psis = [Jet(ring, oo, {e: c for e, c in taylor_jet(img, coords, oo)
                                       .coeffs.items() if any(e)}) for img in imgs]
                pows = {}
                for b in ring.monomials_up_to(oo):
                    v = max((k for k, x in enumerate(b) if x), default=None)
                    pows[b] = (Jet(ring, oo, {b: ring.params.one}) if v is None
                               else pows[_lower(b, v)] * psis[v])
                tab = _pull_back(ring, tab, oo, pows.__getitem__)
            # h^b -> sum_v b_v J_q(val_v) h^(b - e_v), once per application
            for j, power in enumerate(alpha):
                gen = S.inf_gens[j]
                for _ in range(power):
                    if not tab:
                        break
                    oo = max(sum(a) for a in tab)
                    jvals = {v: taylor_jet(val, q, oo) for v, val in gen.values.items()}
                    tab = _pull_back(ring, tab, oo + 1, lambda b: sum(
                        (_times(jv, _lower(b, v)).scale(b[v])
                         for v, jv in jvals.items() if b[v]), Jet(ring, oo, {})))
            final = {a: c for a, c in tab.items() if sum(a) <= jet_order}
            leaked = leaked or len(final) < len(tab)
            result._merge(q, final)
    return result, leaked


@dataclass
class TruncatedModule:
    """A finite slice of the distribution module with exact action matrices."""

    setting: object
    generator_names: list
    points: list            # PointIdeal per support point
    jet_order: int
    keys: list              # (point index, jet index), the coordinate order
    basis: list             # rows over keys (echelon, deterministic)
    pivot_cols: list        # pivot key index per basis row
    matrices: dict          # generator name -> dim x dim matrix (columns = images)
    leaks: dict             # generator name -> truncation flag
    var_matrices: list      # one matrix per ring variable
    var_leaks: list = field(default_factory=list)

    @property
    def dim(self):
        return len(self.basis)

    def basis_vector(self, i):
        dv = DistributionVector(self.setting.ring, [])
        for k, c in enumerate(self.basis[i]):
            if not c.is_zero():
                pi, a = self.keys[k]
                dv._merge(self.points[pi].coords, {a: c})
        return dv

    def basis_labels(self):
        out = []
        for p in self.pivot_cols:
            pi, a = self.keys[p]
            out.append("delta[%s;%s]" % (self.points[pi].label(), list(a)))
        return out

    def point_block_dims(self):
        """Dimension of the generalized weight block at each support point."""
        dims = []
        for pi in range(len(self.points)):
            masked = []
            for row in self.basis:
                masked.append([
                    (self.setting.ring.params.zero if self.keys[k][0] == pi else c)
                    for k, c in enumerate(row)])
            dims.append(self.dim - linalg.rank(masked))
        return dims

    def ordinary_weight_space(self, point):
        """Basis (in module coordinates) of {v : a v = a(p) v for all variables}."""
        params = self.setting.ring.params
        stacked = []
        for v in range(self.setting.ring.nvars):
            c = point.evaluate(self.setting.ring.var(v))
            mat = self.var_matrices[v]
            for i in range(self.dim):
                stacked.append([mat[i][j] - (c if i == j else params.zero)
                                for j in range(self.dim)])
        if not stacked or all(x.is_zero() for row in stacked for x in row):
            return linalg.identity_like(self.dim, params.one, params.zero)
        return linalg.nullspace(stacked)

    def any_leak(self):
        return any(self.leaks.values()) or any(self.var_leaks)


def _mat_vec(params, M, x):
    """M x, multiplying only where both factors are nonzero (as linalg does)."""
    support = [k for k, c in enumerate(x) if not c.is_zero()]
    return [sum((row[k] * x[k] for k in support if not row[k].is_zero()),
                start=params.zero) for row in M]


def _point_index(points, coords):
    """Index of the support point with these coordinates, or None."""
    for i, p in enumerate(points):
        if all(a == b for a, b in zip(p.coords, coords)):
            return i
    return None


def _coordinates(vector, point_index):
    """A distribution in module coordinates {(point index, jet index): c}."""
    out = {}
    for coords, tab in vector.entries:
        pi = point_index(coords)
        out.update(((pi, a), c) for a, c in tab.items())
    return out


def cyclic_module(presentation, point, jet_order, word_length, orbit_window=16):
    """The span of (generator words of length <= l) applied to the character.

    Exact basis by row reduction; action matrices relative to that basis,
    with truncation leakage flagged per matrix.  The number of distinct
    support points is capped by ``orbit_window``.
    """
    S = presentation.setting
    ring = S.ring

    def act(name, op, v):
        try:
            return distribution_action(op, v, jet_order)
        except ModuleInputError as exc:
            raise ModuleInputError("generator %s %s" % (name, exc)) from None

    xi0 = DistributionVector.evaluation(ring, point.coords)
    vectors = [xi0]
    frontier = [xi0]
    for _ in range(word_length):
        nxt = []
        for name, g in presentation.generators:
            for v in frontier:
                w, _ = act(name, g, v)
                if not w.is_zero():
                    nxt.append(w)
        frontier = nxt
        vectors.extend(nxt)

    points = []

    def point_index(coords):
        i = _point_index(points, coords)
        if i is not None:
            return i
        points.append(PointIdeal(ring, coords))
        if len(points) > orbit_window:
            raise ModuleInputError("the module reaches more support points than "
                                   "bounds.orbit_window = %d" % orbit_window)
        return len(points) - 1

    raw = [_coordinates(v, point_index) for v in vectors]
    keys = sorted({k for entry in raw for k in entry},
                  key=lambda k: (k[0], sum(k[1]), k[1]))
    zero = ring.params.zero
    rows = [[entry.get(k, zero) for k in keys] for entry in raw]
    reduced, pivots = linalg.row_reduce(rows)
    basis = reduced[:len(pivots)]

    module = TruncatedModule(S, [n for n, _ in presentation.generators],
                             points, jet_order, keys, basis, list(pivots),
                             {}, {}, [], [])

    def matrix_for(name, op):
        cols = []
        leak = False
        for i in range(len(basis)):
            bv = module.basis_vector(i)
            w, lk = act(name, op, bv)
            # an entry off the keys (an unknown point gives index None) leaks
            entry = _coordinates(w, partial(_point_index, points))
            vec = [entry.pop(k, zero) for k in keys]
            coords_, resid = linalg.reduce_vector(basis, pivots, vec)
            leak = leak or lk or bool(entry) or any(not x.is_zero() for x in resid)
            cols.append(coords_)
        mat = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
        return mat, leak

    for name, g in presentation.generators:
        module.matrices[name], module.leaks[name] = matrix_for(name, g)
    for v in range(ring.nvars):
        mat, leak = matrix_for(ring.names[v], S.from_ratfunc(ring.var(v)))
        module.var_matrices.append(mat)
        module.var_leaks.append(leak)
    return module


def largest_invariant_avoiding(module, point):
    """The largest subspace stable under all action matrices that misses the
    character line, as echelon rows in module coordinates, with their pivots.

    For the character row phi it is the common kernel of phi M_w over all
    words w (Kalman's unobservable subspace): invariant, inside ker phi, and
    containing every invariant subspace of ker phi.  The rows phi M_w span
    the closure of phi under the transposed matrices.
    """
    params = module.setting.ring.params
    ring = module.setting.ring
    key = (_point_index(module.points, point.coords), (0,) * ring.nvars)
    if key not in module.keys:
        raise ValueError("the module has no support at the point")
    col = module.keys.index(key)
    row = [b[col] for b in module.basis]
    if all(c.is_zero() for c in row):
        raise ValueError("the evaluation functional is not in the module")
    transposed = [[list(c) for c in zip(*M)] for M in module.matrices.values()]
    U = linalg.nullspace(_closure(params, transposed, [row]))
    ech, piv = linalg.row_reduce(U)
    return ech[:len(piv)], piv


def simple_quotient(module, point):
    """The quotient by the largest invariant subspace avoiding the character line.

    For a module cyclic on the character this is its unique simple
    quotient.  Requires the ordinary weight space at the point to be a
    line (the point acts as a character on it).
    """
    params = module.setting.ring.params
    d = module.dim
    ordinary = module.ordinary_weight_space(point)
    if len(ordinary) != 1:
        raise ValueError("ordinary weight space at the point is %d-dimensional, "
                         "expected 1" % len(ordinary))
    U, upiv = largest_invariant_avoiding(module, point)
    keep = [i for i in range(d) if i not in upiv]

    def project(M):
        # column j of the quotient matrix is column keep[j] of M, reduced
        cols = []
        for j in keep:
            _, resid = linalg.reduce_vector(U, upiv, [row[j] for row in M])
            cols.append([resid[i] for i in keep])
        return [list(row) for row in zip(*cols)]

    qmats = {name: project(M) for name, M in module.matrices.items()}
    qvars = [project(M) for M in module.var_matrices]
    # quotient classes are labeled by the pivot keys of the kept coordinates
    qkeys = [module.keys[module.pivot_cols[j]] for j in keep]
    return TruncatedModule(
        module.setting, module.generator_names, module.points, module.jet_order,
        qkeys, linalg.identity_like(len(keep), params.one, params.zero),
        list(range(len(keep))), qmats, dict(module.leaks), qvars,
        list(module.var_leaks))


def _closure(params, matrices, basis):
    """A basis of the span of ``basis`` closed under the matrices, from a
    worklist: a vector that enlarges the span joins the basis (scaled to a
    pivot 1) and is multiplied by each matrix once."""
    rows, pivots, queue = [], [], list(basis)
    while queue:
        if linalg.extend(rows, pivots, queue.pop()):
            queue.extend(_mat_vec(params, M, rows[-1]) for M in matrices)
    return rows


def scalar_module_check(p_poly, lam, mu):
    """One-dimensional modules of the Ore algebra on t, X with Xt - tX = p(t).

    The assignment t -> lam, X -> mu respects the relation iff p(lam) = 0;
    when it does, mu is a free parameter, so the fiber is an infinite
    family.
    """
    report = partial(VerificationReport, "scalar-module",
                     provenance="Xt - tX = p(t) on a line forces p(lambda) = 0")
    ring = p_poly.ring
    params = ring.params
    lam = lam if hasattr(lam, "field") else params.from_fraction(lam)
    mu = mu if hasattr(mu, "field") else params.from_fraction(mu)
    value = p_poly.evaluate((lam,) * ring.nvars)
    if value.is_zero():
        return report(VERIFIED, {"lambda": str(lam), "mu": str(mu), "p(lambda)": "0",
                                 "note": "mu is arbitrary: a one-dimensional module "
                                         "for every scalar, an uncountable family"})
    return report(COUNTEREXAMPLE, {"lambda": str(lam), "mu": str(mu),
                                   "p(lambda)": str(value)})


def local_finiteness_check(module, presentation, r, point, monoid_window=3):
    """Hypotheses for finite weight spaces at a fixed filtration level.

    (i) the degree <= r part of the presentation generates the module from
    a weight vector at the point; (ii) the level-r stabilizer data is
    finite-dimensional (always true at fixed r for a finite group; the
    shift window is reported honestly).  When both hold the weight-space
    dimension is reported.
    """
    report = partial(VerificationReport, "local-finiteness",
                     provenance="a filtration slice generating from a weight "
                                "vector bounds the weight space")
    S = module.setting
    params = S.ring.params
    ordinary = module.ordinary_weight_space(point)
    if not ordinary:
        return report(COUNTEREXAMPLE, {"hypothesis": "i",
                                       "reason": "no weight vector at the point"},
                      bounds={"level": r})
    low_names = []
    mats = []
    for name, g in presentation.generators:
        if g.is_zero() or g.filtration_degree() <= r:
            low_names.append(name)
            mats.append(module.matrices[name])
    generates = len(_closure(params, mats, [list(ordinary[0])])) == module.dim
    span = full_group_span(S, monoid_window)
    stab = stab_group(span, point)
    inf_slab = 1
    ngen = len(S.inf_gens)
    if ngen:
        inf_slab = comb(r + ngen, ngen)
    pi = _point_index(module.points, point.coords)
    block = None if pi is None else module.point_block_dims()[pi]
    return report(VERIFIED if generates else COUNTEREXAMPLE, {
        "hypothesis-i": "generators of degree <= %d %s the module from a "
                        "weight vector" % (r, "generate" if generates
                                           else "do not generate"),
        "low-degree-generators": low_names,
        "hypothesis-ii": "level-%d slab has %d infinitesimal monomial(s); "
                         "grouplike stabilizer has %d element(s)"
                         % (r, inf_slab, len(stab.members)),
        "weight-space-dim": block,
    }, bounds={"level": r, "monoid-window": monoid_window})
