"""Command-line driver: declarative configs in, deterministic reports out.

Subcommands: ``catalog``, ``verify``, ``module``, ``stabilizer``,
``spherical``.  A config is a JSON document::

    {
      "recipe": {"kind": "cherednik", "n": 2, "group": "S2"},
      "bounds": {"degree": 6, "jet_order": 3, "word_length": 3,
                 "orbit_window": 8},
      "point": ["0", "0"],
      "checks": ["preserves-lattice", "identities"],
      "extra_generators": [
        {"name": "Y",
         "terms": [{"scalar": "1", "num_exps": [0], "den_exps": [1],
                    "group": 0, "mu": [], "inf": [1]}]}
      ]
    }

``recipe.kind`` is one of the names printed by ``catalog``, and the other
``recipe`` keys are the fields of that recipe.  Any other key, at any
level, is a usage error.  Bounds on the command line (``--degree``,
``--jet-order``, ``--word-length``, ``--orbit-window``) override the
config.  Reports embed the bounds used and a one-line statement of the
identity or axiom each check certifies; identical configs produce
byte-identical reports.  Exit codes: 0 all verified, 1 counterexample (or
truncation leakage without ``--allow-truncation``), 2 usage error
(including a config file that cannot be read, a report that cannot be
written to ``--out``, and, for ``module``, a generator with a pole at a
support point the module reaches, and more support points than
``bounds.orbit_window``), 3 inconclusive-at-bound under ``--strict``, 4
unsupported (a computation the package does not implement, such as
``module`` on a twisted generator; an ``unsupported:`` line on stderr) or
internal error (a traceback, then an ``internal error:`` line).  Every
subcommand but ``catalog`` runs through ``run``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import traceback
from fractions import Fraction
from functools import partial

from . import catalog as cat
from . import linalg
from . import spherical as sph
from .hcmod import (ModuleInputError, cyclic_module, scalar_module_check,
                    simple_quotient)
from .polyring import RatFunc
from .stabilizer import (PointIdeal, GrouplikeSpan, find_reductor,
                         finiteness_predicate, full_group_span, stab_group,
                         verify_reductor)
from .verify import (COUNTEREXAMPLE, INCONCLUSIVE, VERIFIED, OrderPresentation,
                     VerificationReport, fo_certificate, generation_witness,
                     max_commutative_probe, normal_form_keys,
                     preserves_lattice, split_decompose)


class UsageError(Exception):
    pass


def _need(mapping, key, path):
    if key not in mapping:
        raise UsageError("missing config field: %s.%s" % (path, key) if path
                         else "missing config field: %s" % key)
    return mapping[key]


def _known_keys(doc, known, path):
    """Reject a key of ``doc`` outside ``known``: a misspelt bound would
    otherwise leave its default in force."""
    for key in doc:
        if key not in known:
            raise UsageError("unknown config field: %s%s (known: %s)"
                             % (path + "." if path else "", key, ", ".join(known)))


def _int(value, path):
    try:
        n = int(value)
        # int() alone would truncate 1.7 to 1, and read JSON true as 1
        if isinstance(value, str) or (n == value and not isinstance(value, bool)):
            return n
    except (TypeError, ValueError):
        pass
    raise UsageError("%s must be an integer, not %r" % (path, value))


def _fraction(value, path):
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s must be an integer or a fraction, not %r" % (path, value))


def _str(value, path):
    if not isinstance(value, str):
        raise UsageError("%s must be a string, not %r" % (path, value))
    return value


def _fractions(value, path):
    if not isinstance(value, (list, tuple)):
        raise UsageError("%s must be a list, not %r" % (path, value))
    return tuple(_fraction(c, "%s[%d]" % (path, i)) for i, c in enumerate(value))


# recipe field annotation -> parser of its config value
_FIELD_PARSERS = {"int": _int, "str": _str, "tuple": _fractions}


def parse_recipe(doc):
    """The catalog recipe a config's ``recipe`` object names: ``kind``
    picks the class, and each dataclass field is read from the key of the
    same name, which may be left out where the field has a default."""
    if not isinstance(doc, dict):
        raise UsageError("recipe must be an object, not %r" % (doc,))
    kind = _need(doc, "kind", "recipe")
    cls = cat.RECIPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise UsageError("unknown recipe.kind %r (see the catalog subcommand)" % (kind,))
    fields = dataclasses.fields(cls)
    _known_keys(doc, ("kind",) + tuple(f.name for f in fields), "recipe")
    values = {}
    for f in fields:
        if f.name in doc or f.default is dataclasses.MISSING:
            values[f.name] = _FIELD_PARSERS[f.type](_need(doc, f.name, "recipe"),
                                                    "recipe." + f.name)
    return cls(**values)


def parse_point(setting, coords):
    if coords is None:
        raise UsageError("missing config field: point")
    ring = setting.ring
    if not isinstance(coords, (list, tuple)) or len(coords) != ring.nvars:
        raise UsageError("point must be a list of %d coordinates" % ring.nvars)
    vals = []
    for i, c in enumerate(coords):
        x = _fraction(c, "point[%d]" % i)
        if x == 0 and ring.laurent[i]:
            raise UsageError("point[%d] may not be 0: %s is a Laurent variable"
                             % (i, ring.names[i]))
        vals.append(ring.params.from_fraction(x))
    return PointIdeal(ring, vals)


def _int_vector(value, length, path, nonnegative=None):
    """A list of ``length`` integers; entry i may not be negative where
    ``nonnegative[i]`` is true."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise UsageError("%s must be a list of length %d" % (path, length))
    vec = tuple(_int(v, "%s[%d]" % (path, i)) for i, v in enumerate(value))
    for i, v in enumerate(vec):
        if v < 0 and nonnegative is not None and nonnegative[i]:
            raise UsageError("%s[%d] may not be negative, not %d" % (path, i, v))
    return vec


def parse_extra_generator(setting, doc, idx):
    if not isinstance(doc, dict):
        raise UsageError("extra_generators[%d] must be an object" % idx)
    _known_keys(doc, ("name", "terms"), "extra_generators[%d]" % idx)
    name = _str(doc.get("name", "extra%d" % idx), "extra_generators[%d].name" % idx)
    terms = _need(doc, "terms", "extra_generators[%d]" % idx)
    if not isinstance(terms, list):
        raise UsageError("extra_generators[%d].terms must be a list" % idx)
    ring = setting.ring
    # only Laurent variables take negative exponents
    polynomial = [not laurent for laurent in ring.laurent]
    zeros = [0] * ring.nvars
    ninf = len(setting.inf_gens)
    total = setting.zero()
    for k, t in enumerate(terms):
        path = "extra_generators[%d].terms[%d]" % (idx, k)
        if not isinstance(t, dict):
            raise UsageError("%s must be an object" % path)
        _known_keys(t, ("scalar", "num_exps", "den_exps", "group", "mu", "inf"), path)
        scalar = ring.params.from_fraction(
            _fraction(t.get("scalar", "1"), path + ".scalar"))
        num = ring.monomial(_int_vector(t.get("num_exps", zeros), ring.nvars,
                                        path + ".num_exps", polynomial), scalar)
        den_exps = t.get("den_exps")
        coeff = RatFunc.of(num) if den_exps is None else \
            RatFunc(num, ring.monomial(_int_vector(den_exps, ring.nvars,
                                                   path + ".den_exps", polynomial)))
        w = _int(t.get("group", 0), path + ".group")
        if not 0 <= w < setting.group_size:
            raise UsageError("%s.group must be a group element index from 0 "
                             "to %d, not %d" % (path, setting.group_size - 1, w))
        mu = _int_vector(t.get("mu", [0] * setting.monoid_rank),
                         setting.monoid_rank, path + ".mu")
        alpha = _int_vector(t.get("inf", [0] * ninf), ninf, path + ".inf",
                            [True] * ninf)
        el = setting.group_element(w, mu)
        for j, power in enumerate(alpha):
            if power:
                el = el * setting.inf_element(j, power)
        total = total + el.scale(coeff)
    if total.is_zero():
        raise UsageError("extra_generators[%d]: the terms sum to zero" % idx)
    return name, total


def load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise UsageError("config file not found: %s" % path)
    except OSError as exc:
        raise UsageError("config file cannot be read: %s (%s)" % (path, exc.strerror))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError("config is not valid JSON: %s" % exc)
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    return config


def _get(config, key, default, kind, noun):
    """``config[key]``, which must be ``kind`` (a missing or null value
    reads as ``default``)."""
    value = config.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise UsageError("%s must be %s, not %r" % (key, noun, value))
    return value


CONFIG_KEYS = ("recipe", "generators", "extra_generators", "bounds", "checks",
               "point")
BOUNDS = ("degree", "jet_order", "word_length", "orbit_window")


def build_from_config(config, args):
    _known_keys(config, CONFIG_KEYS, "")
    recipe = parse_recipe(_need(config, "recipe", ""))
    try:
        setting = cat.build_setting(recipe)
    except cat.GroupNameError as exc:
        raise UsageError("recipe.group %s" % exc)
    except ValueError as exc:
        # the catalog rejects what else it cannot build: a rank, a Cartan type
        raise UsageError("recipe: %s" % exc)
    setting.validate()
    gens = cat.standard_generators(setting)
    wanted = _get(config, "generators", None, list, "a list of generator names")
    if wanted is not None:
        have = {n for n, _ in gens}
        for n in wanted:
            if not isinstance(n, str) or n not in have:
                raise UsageError("generators: unknown generator name %r" % (n,))
        gens = [(n, g) for n, g in gens if n in wanted]
    for i, doc in enumerate(_get(config, "extra_generators", [], list, "a list")):
        gens.append(parse_extra_generator(setting, doc, i))
    bounds = dict(_get(config, "bounds", {}, dict, "an object"))
    _known_keys(bounds, BOUNDS, "bounds")
    for key in BOUNDS:
        val = getattr(args, key, None)
        if val is not None:
            bounds[key] = val
    bounds.setdefault("degree", 4)
    bounds.setdefault("jet_order", 3)
    bounds.setdefault("word_length", 3)
    bounds.setdefault("orbit_window", 8)
    for k, v in bounds.items():
        bounds[k] = v = _int(v, "bounds.%s" % k)
        if v < 0 or (k != "orbit_window" and v < 1):
            raise UsageError("bounds.%s must be positive" % k)
    return setting, OrderPresentation(setting, gens), bounds


# -- identity suites -------------------------------------------------------


def identity_suite(setting):
    """Exact structural identities specific to each catalog setting."""
    return setting.recipe.identities(setting)


def representation_consistency(setting, presentation, samples=25, seed=0):
    """apply(XY, f) = apply(X, apply(Y, f)) on random pairs and monomials."""
    report = partial(VerificationReport, "representation-consistency",
                     bounds={"samples": samples},
                     provenance="the operator realization is multiplicative: "
                                "(XY)(f) = X(Y(f))")
    rng = random.Random(seed)
    ring = setting.ring
    gens = [g for _, g in presentation.generators]
    monos = ring.monomials_up_to(3, include_negative=True)
    for trial in range(samples):
        x = rng.choice(gens) + rng.choice(gens).scale(
            RatFunc.of(ring.monomial(rng.choice(monos))))
        y = rng.choice(gens) * rng.choice(gens)
        f = RatFunc.of(ring.monomial(rng.choice(monos)))
        if (x * y).apply(f) != x.apply(y.apply(f)):
            return report(COUNTEREXAMPLE, {"trial": trial})
    return report(VERIFIED)


# -- subcommands ------------------------------------------------------------


def cmd_catalog(args):
    lines = ["available recipes:"]
    for name, recipe in sorted(cat.RECIPES.items()):
        lines.append("  %-28s %s" % (name, recipe.__doc__))
    print("\n".join(lines))
    return 0


def _emit(document, out_path):
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("report cannot be written: %s (%s)" % (out_path, exc.strerror))
    else:
        sys.stdout.write(text)


def _checks(doc, reports):
    """Write the ``checks`` and ``summary`` of a report; return the body's result."""
    doc["checks"] = [r.to_dict() for r in reports]
    doc["summary"] = {
        "verified": sum(r.status == VERIFIED for r in reports),
        "counterexamples": sum(r.status == COUNTEREXAMPLE for r in reports),
        "inconclusive": sum(r.status == INCONCLUSIVE for r in reports),
    }
    return reports, False


def _need_generators(presentation):
    """The order certificates of ``verify`` and ``spherical`` are about the
    algebra the generators span, so an empty list is bad input."""
    if not presentation.generators:
        raise UsageError("generators: the list is empty and no extra_generators "
                         "are given")


CHECKS = ("preserves-lattice", "identities", "split-maxcomm", "fo-certificate",
          "generation", "representation")


def cmd_verify(config, setting, presentation, bounds, doc):
    _need_generators(presentation)
    wanted = _get(config, "checks", CHECKS, list, "a list of check names")
    for name in wanted:
        if name not in CHECKS:
            raise UsageError("checks: unknown check name %r (known: %s)"
                             % (name, ", ".join(CHECKS)))
    reports = []
    if "preserves-lattice" in wanted:
        reports.append(preserves_lattice(presentation, bounds["degree"]))
    if "identities" in wanted:
        reports.extend(identity_suite(setting))
    if "split-maxcomm" in wanted:
        witness = {}
        for name, g in presentation.generators:
            head, minus = split_decompose(g)
            if not witness and not head.is_in_lattice():
                witness = {"generator": name, "X(1)": str(head)}
            if not minus.is_zero():
                reports.append(max_commutative_probe(g, 2))
        reports.append(VerificationReport(
            "lattice-splitting", COUNTEREXAMPLE if witness else VERIFIED,
            witness=witness, provenance="X = X(1) + X_- splits off the lattice summand"))
    if "fo-certificate" in wanted:
        # the generators outside the left span of those before them
        els = presentation.elements()
        zero = RatFunc.of(setting.ring.zero)
        _, pivots = linalg.row_reduce([[x.terms.get(k, zero) for x in els]
                                       for k in normal_form_keys(els)])
        reports.append(fo_certificate([els[j] for j in pivots], bounds["degree"]))
    if "generation" in wanted:
        reports.append(generation_witness(presentation,
                                          min(bounds["word_length"], 2)))
    if "representation" in wanted:
        reports.append(representation_consistency(setting, presentation))
    return _checks(doc, reports)


def cmd_module(config, setting, presentation, bounds, doc):
    point = parse_point(setting, config.get("point"))
    try:
        module = cyclic_module(presentation, point, bounds["jet_order"],
                               bounds["word_length"], bounds["orbit_window"])
    except ModuleInputError as exc:
        raise UsageError(str(exc))
    quotient = simple_quotient(module, point)
    doc["point"] = point.label()
    doc["module"] = {
        "dimension": module.dim,
        "basis": module.basis_labels(),
        "points": [p.label() for p in module.points],
        "weight-block-dims": module.point_block_dims(),
        "ordinary-weight-dim": len(module.ordinary_weight_space(point)),
        "truncation-leaks": {k: bool(v) for k, v in sorted(module.leaks.items())},
        "matrices": {name: [[str(c) for c in row] for row in mat]
                     for name, mat in sorted(module.matrices.items())},
    }
    doc["simple-quotient-dimension"] = quotient.dim
    if isinstance(setting.recipe, cat.OreFamily):
        # informational: whether a one-dimensional family sits at this point
        p = setting.meta["p"]
        rep = scalar_module_check(p, point.coords[0],
                                  setting.ring.params.from_fraction(1))
        doc["scalar-family"] = rep.to_dict()
    return [], module.any_leak()


def cmd_stabilizer(config, setting, presentation, bounds, doc):
    point = parse_point(setting, config.get("point"))
    window = bounds["orbit_window"]
    span = full_group_span(setting, min(window, 3))
    stab = stab_group(span, point)
    reports = []
    reductors = []
    for g in span.members:
        if setting.gp_is_identity(g) or g in stab.members:
            continue
        single = GrouplikeSpan(setting, [g])
        # g moves the point, so find_reductor builds a reductor
        red = find_reductor(single, point)
        rep = verify_reductor(red, single, point)
        reports.append(rep)
        reductors.append({"grouplike": setting.gp_name(g),
                          "pairs": red.describe(), "status": rep.status})
    finite, why = finiteness_predicate(setting, point, min(window, 3))
    doc["point"] = point.label()
    doc["stabilizer"] = stab.names()
    doc["examined"] = len(span.members)
    doc["reductors"] = reductors
    doc["finiteness"] = {"finite": finite, "explanation": why}
    return reports, False


def cmd_spherical(config, setting, presentation, bounds, doc):
    _need_generators(presentation)
    reports = []
    e = sph.idempotent(setting)
    ok = (e * e) == e and all(
        (setting.group_element(w) * e) == e for w in range(setting.group_size))
    reports.append(VerificationReport(
        "idempotent", VERIFIED if ok else COUNTEREXAMPLE,
        provenance="e = |W|^-1 sum w satisfies e^2 = e and we = e"))

    rng = random.Random(0)
    gens = [g for _, g in presentation.generators]
    ring = setting.ring
    monos = ring.monomials_up_to(2, include_negative=True)
    ok = True
    for _ in range(10):
        a = sph.symmetrize(rng.choice(gens) * rng.choice(gens))
        b = sph.symmetrize(rng.choice(gens).scale(
            RatFunc.of(ring.monomial(rng.choice(monos)))))
        if sph.psi(a * b) != sph.psi(a) * sph.psi(b):
            ok = False
            break
    reports.append(VerificationReport(
        "psi-multiplicative", VERIFIED if ok else COUNTEREXAMPLE,
        bounds={"samples": 10},
        provenance="X -> eXe is an algebra map on invariants"))

    spherical_gens = []
    for name, g in presentation.generators:
        _, minus = split_decompose(g)
        if minus.is_zero():
            continue
        sym = sph.symmetrize(g)
        if sym.is_zero():
            sym = sph.symmetrize(g * g)
            name = "sym(%s^2)" % name
        else:
            name = "sym(%s)" % name
        if not sym.is_zero():
            spherical_gens.append((name, sym))
    if spherical_gens:
        reports.append(sph.spherical_axiom_check(spherical_gens, setting,
                                                 bounds["degree"]))
    if setting.group_size > 1:
        reports.append(sph.morita_witness(presentation, bounds["word_length"]))
    return _checks(doc, reports)


# subcommand -> body: adds its keys to the report, returns (reports, leaked)
SUBCOMMANDS = {"verify": cmd_verify, "module": cmd_module,
               "stabilizer": cmd_stabilizer, "spherical": cmd_spherical}


def run(args):
    """One subcommand from its config to its exit code: load and build the
    setting, run the body, write the report, and exit 1 on a counterexample
    (or on leaked jets without ``--allow-truncation``), 3 on an inconclusive
    check under ``--strict``, else 0."""
    config = load_config(args.config)
    setting, presentation, bounds = build_from_config(config, args)
    doc = {"setting": setting.name, "recipe": config.get("recipe"), "bounds": bounds}
    reports, leaked = SUBCOMMANDS[args.command](config, setting, presentation,
                                                bounds, doc)
    _emit(doc, args.out)
    if any(r.status == COUNTEREXAMPLE for r in reports):
        return 1
    if leaked and not getattr(args, "allow_truncation", False):
        return 1
    if args.strict and any(r.status == INCONCLUSIVE for r in reports):
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfgalois",
        description="exact smash-product arithmetic and order certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list available setting recipes")

    def common(p, with_module_flags=False):
        p.add_argument("config", help="path to a JSON config")
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--jet-order", dest="jet_order", type=int, default=None)
        p.add_argument("--word-length", dest="word_length", type=int, default=None)
        p.add_argument("--orbit-window", dest="orbit_window", type=int, default=None)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 on inconclusive-at-bound")
        if with_module_flags:
            p.add_argument("--allow-truncation", action="store_true",
                           help="exit 0 even when jets leaked")

    common(sub.add_parser("verify", help="axiom and identity certificates"))
    common(sub.add_parser("module", help="canonical distribution module dump"),
           with_module_flags=True)
    common(sub.add_parser("stabilizer", help="stabilizers and reductors"))
    common(sub.add_parser("spherical", help="idempotent-centralizer checks"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return cmd_catalog(args) if args.command == "catalog" else run(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except NotImplementedError as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return 4
    except Exception as exc:
        # a fault of the package, never a verdict: exit 1 means counterexample
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
