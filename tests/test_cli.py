"""The command-line driver: configs, reports, determinism, exit codes."""

import argparse
import json

from hopfgalois import cli
from hopfgalois.cli import build_from_config, main


CATALOG = """\
available recipes:
  cherednik                    Dunkl operators D_y = t d/dy + sum_s 2c_s/(1-lambda_s) (alpha_s,y)/alpha_s (s - 1)
  gkv-hecke                    Demazure-Lusztig operators sigma_i = q(u s_i - 1)/(u - 1) - q^-1(s_i - 1)/(u - 1)
  ore                          k[t] and X = p(t) d/dt, subject to Xt - tX = p(t)
  quantum-borel                k[t] with skew-primitive E: Et = 1 + q^-1 tE (quantum Weyl algebra)
  rational-differential        C[V] with partial derivatives and a finite linear group
  shift-flag                   k[x_1..x_n] with integer shifts x -> x + mu and a permutation group
  trigonometric-differential   Laurent polynomials with Euler operators z d/dz and monomial group
"""


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_catalog_lists_recipes(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "quantum-borel" in out
    assert "cherednik" in out
    assert len([l for l in out.splitlines() if l.startswith("  ")]) == 7
    assert out == CATALOG


def test_verify_quantum_borel(tmp_path):
    cfg = write_config(tmp_path, {"recipe": {"kind": "quantum-borel"}})
    out = tmp_path / "report.json"
    code = main(["verify", cfg, "--degree", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["counterexamples"] == 0
    names = [c["check"] for c in doc["checks"]]
    assert "preserves-lattice" in names and "quantum-weyl-relation" in names
    for c in doc["checks"]:
        assert c["provenance"]


def test_verify_injected_counterexample(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [1]},
        "extra_generators": [
            {"name": "Y", "terms": [{"den_exps": [1], "inf": [1]}]}],
    })
    out = tmp_path / "report.json"
    code = main(["verify", cfg, "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    bad = [c for c in doc["checks"] if c["status"] == "counterexample"]
    assert bad and bad[0]["witness"]["operator"] == "Y"


def test_lattice_splitting_fails_off_the_lattice(tmp_path):
    # the operator 1/t sends 1 out of the lattice k[t]
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [1]}, "checks": ["split-maxcomm"],
        "extra_generators": [{"name": "Y", "terms": [{"den_exps": [1]}]}],
    })
    out = tmp_path / "report.json"
    assert main(["verify", cfg, "--out", str(out)]) == 1
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["check"] == "lattice-splitting"]
    assert check["status"] == "counterexample"
    assert check["witness"] == {"generator": "Y", "X(1)": "(1)/(t)"}


def test_verify_malformed_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"recipe": {"n": 2}})
    assert main(["verify", cfg]) == 2
    assert "recipe.kind" in capsys.readouterr().err
    # values that do not parse, or name what the catalog cannot build
    flag = {"kind": "shift-flag", "n": 2, "group": "S2"}
    cases = [
        ("verify", {"recipe": {"kind": "cherednik", "n": "two"}}, "recipe.n"),
        ("verify", {"recipe": {"kind": "cherednik", "n": 1.7}}, "recipe.n"),
        ("verify", {"recipe": {"kind": "quantum-borel"},
                    "bounds": {"degree": "abc"}}, "bounds.degree"),
        ("verify", {"recipe": {"kind": "rational-differential", "n": 1,
                               "group": "Q7"}}, "Q7"),
        ("verify", {"recipe": {"kind": "cherednik", "n": 2, "group": "S3"}},
         "S3"),
        ("verify", {"recipe": {"kind": "rational-differential", "n": 1,
                               "group": "Z0"}}, "Z0"),
        ("verify", {"recipe": {"kind": "cherednik", "n": 1, "group": "Z-3"}},
         "Z-3"),
        ("verify", {"recipe": {"kind": "shift-flag", "n": -1}}, "n must be positive"),
        ("verify", {"recipe": {"kind": "rational-differential", "n": 0}},
         "n must be positive"),
        ("verify", {"recipe": {"kind": "nope"}}, "unknown recipe.kind 'nope'"),
        ("stabilizer", {"recipe": flag}, "missing config field: point"),
        ("verify", {"recipe": {"kind": "ore", "p": [1]}, "extra_generators": [
            {"terms": 5}]}, "extra_generators[0].terms must be a list"),
        ("verify", {"recipe": {"kind": "ore", "p": [1]}, "bounds": {"degree": 0}},
         "bounds.degree must be positive"),
        ("verify", {"recipe": dict(flag, group="Z3")},
         "does not normalize the shift monoid"),
        ("verify", {"recipe": {"kind": "gkv-hecke", "cartan": "B2"}},
         "unsupported Cartan type 'B2'"),
        ("verify", {"recipe": {"kind": "gkv-hecke", "variant": "x"}},
         "variant must be multiplicative or additive"),
        ("stabilizer", {"recipe": flag, "point": ["1"]}, "point"),
        ("stabilizer", {"recipe": flag, "point": ["1", "x"]}, "point[1]"),
        ("verify", {"recipe": {"kind": "ore", "p": [1]}, "extra_generators": [
            {"terms": [{"scalar": "x", "inf": [1]}]}]}, "scalar"),
    ]
    # group names that do not parse, in the linear and the monomial path
    trig = {"kind": "trigonometric-differential", "n": 1}
    rd = {"kind": "rational-differential", "n": 1}
    for recipe, group in [(rd, "Zabc"), (rd, "Z"), (rd, "Sabc"), (rd, "S0"),
                          (rd, "S-2"), (trig, "Zabc"), (trig, "Sabc"),
                          (trig, "S0"), (trig, "S-2"), (trig, "S3"),
                          # more than 24 elements, rejected before they are built
                          (rd, "Z25"), (dict(rd, n=5), "S5")]:
        cases.append(("verify", {"recipe": dict(recipe, group=group)},
                      "recipe.group %r" % group))
    # extra generator terms whose parts do not fit the setting
    ore = {"kind": "ore", "p": [1]}
    s2 = {"kind": "rational-differential", "n": 2, "group": "S2"}
    for recipe, term, needle in [
            (ore, {"num_exps": [1, 2]}, "num_exps"),
            (ore, {"den_exps": [1, 2]}, "den_exps"),
            (ore, {"num_exps": [-1]}, "num_exps[0]"),
            (ore, {"num_exps": [1.5]}, "num_exps[0]"),
            (ore, {"group": 5}, "group"),
            (s2, {"group": -1}, "group"),
            (ore, {"group": "e"}, "group"),
            (ore, {"inf": [1, 1]}, "inf"),
            (ore, {"inf": [-1]}, "inf[0]"),
            (ore, {"mu": [1]}, "mu"),
            (ore, "t", "terms[0]")]:
        cases.append(("verify", {"recipe": recipe, "extra_generators": [
            {"terms": [term]}]}, needle))
    cases.append(("verify", {"recipe": ore, "extra_generators": [5]},
                  "extra_generators[0]"))
    cases.append(("module", {"recipe": ore, "point": ["0"], "extra_generators": [
        {"name": 5, "terms": [{"inf": [1]}]}]}, "extra_generators[0].name"))
    # a zero coordinate at a Laurent variable
    cases.append(("module", {"recipe": {"kind": "trigonometric-differential", "n": 1,
                                        "group": "inversion"}, "point": ["0"]},
                  "point[0] may not be 0"))
    # a point where a generator has a pole (the Dunkl term c/x1 at 0)
    cases.append(("module", {"recipe": {"kind": "cherednik", "n": 1, "group": "Z2"},
                             "point": ["0"]}, "generator D1 has a pole at (0)"))
    # a pole at a point the module reaches: 1/x1 at x1 = 0, through tau1^-1
    cases.append(("module", {"recipe": {"kind": "shift-flag", "n": 1}, "point": ["1"],
                             "bounds": {"word_length": 2},
                             "extra_generators": [{"terms": [{"den_exps": [1]}]}]},
                  "generator extra0 has a pole at (0)"))
    # more support points than the default orbit window of 8
    cases.append(("module", {"recipe": {"kind": "shift-flag", "n": 2, "group": "S2"},
                             "point": ["0", "0"], "bounds": {"word_length": 2}},
                  "bounds.orbit_window = 8"))
    # config values of the wrong JSON type
    for doc, needle in [
            ({"recipe": ore, "generators": 5}, "generators"),
            ({"recipe": ore, "extra_generators": 5}, "extra_generators"),
            ({"recipe": ore, "bounds": [1]}, "bounds"),
            ({"recipe": ore, "checks": 5}, "checks"),
            ({"recipe": ore, "checks": "identities"}, "checks"),
            ({"recipe": 5}, "recipe"),
            ({"recipe": {"kind": "ore", "p": 1}}, "recipe.p"),
            ({"recipe": {"kind": "cherednik", "n": 2, "group": 5}},
             "recipe.group")]:
        cases.append(("verify", doc, needle))
    # keys that are not read: a misspelt bound, a field the recipe does not
    # have, a misspelt top-level key or extra generator key
    for doc, needle in [
            ({"recipe": ore, "bounds": {"degre": 2}}, "bounds.degre (known: "
             "degree, jet_order, word_length, orbit_window)"),
            ({"recipe": {"kind": "ore", "p": [1], "n": 2}}, "recipe.n (known: "
             "kind, p)"),
            ({"recipe": ore, "check": ["identities"]}, "field: check (known: "
             "recipe, generators, extra_generators, bounds, checks, point)")]:
        cases.append(("verify", doc, needle))
    cases.append(("spherical", {"recipe": ore, "bound": {"degree": 2}},
                  "field: bound ("))
    cases.append(("verify", {"recipe": ore, "extra_generators": [
        {"nam": "Y", "terms": [{"inf": [1]}]}]}, "extra_generators[0].nam ("))
    cases.append(("verify", {"recipe": ore, "extra_generators": [
        {"terms": [{"num_exp": [5], "inf": [1]}]}]},
        "extra_generators[0].terms[0].num_exp (known: scalar, num_exps, "
        "den_exps, group, mu, inf)"))
    # JSON true is an int to Python, but not an integer of the config
    for doc, needle in [
            ({"recipe": ore, "bounds": {"word_length": True}}, "bounds.word_length"),
            ({"recipe": ore, "bounds": {"degree": True}}, "bounds.degree"),
            ({"recipe": dict(rd, n=True, group="Z2")}, "recipe.n"),
            ({"recipe": ore, "extra_generators": [
                {"terms": [{"num_exps": [True]}]}]}, "num_exps[0]"),
            ({"recipe": s2, "extra_generators": [
                {"terms": [{"group": True}]}]}, "terms[0].group")]:
        cases.append(("verify", doc, needle))
    # no generator at all, where the certificates need one
    for command in ("verify", "spherical"):
        cases.append((command, {"recipe": s2, "generators": []},
                      "generators: the list is empty"))
    # an extra generator whose terms sum to zero, given as zero or cancelling
    for terms in ([{"scalar": "0"}], [{"inf": [1]}, {"scalar": "-1", "inf": [1]}]):
        cases.append(("verify", {"recipe": dict(rd, group="Z2"), "generators": [],
                                 "extra_generators": [{"terms": terms}],
                                 "checks": ["fo-certificate"]},
                      "extra_generators[0]: the terms sum to zero"))
    # a check name that is not one of the checks, such as a typo
    cases.append(("verify", {"recipe": ore, "checks": ["preserve-lattice"]},
                  "'preserve-lattice' (known: preserves-lattice, identities, "
                  "split-maxcomm, fo-certificate, generation, representation)"))
    for i, (command, doc, needle) in enumerate(cases):
        cfg = write_config(tmp_path, doc, "bad%d.json" % i)
        assert main([command, cfg]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and needle in err, err
    # files that are not a JSON object
    for text, needle in [('{"recipe": ', "config is not valid JSON"),
                         ("[1]", "config must be a JSON object")]:
        path = tmp_path / "raw.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and needle in err, err
    # a config path that cannot be read or decoded, and a report path that
    # cannot be written
    good = write_config(tmp_path, {"recipe": ore, "checks": ["identities"]}, "good.json")
    missing_dir = tmp_path / "no-such-dir" / "report.json"
    (tmp_path / "latin1.json").write_bytes(b'{"recipe": "\xe9"}')
    for argv, needle in [
            (["verify", str(tmp_path / "latin1.json")], "config is not valid JSON"),
            (["verify", str(tmp_path / "absent.json")],
             "usage error: config file not found: %s\n" % (tmp_path / "absent.json")),
            (["verify", str(tmp_path)], "config file cannot be read: %s" % tmp_path),
            (["verify", good, "--out", str(missing_dir)],
             "report cannot be written: %s" % missing_dir)]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and needle in err, err
    assert not missing_dir.parent.exists()


def test_unsupported_computation_exits_4(tmp_path, capsys):
    # the skew-primitive E of the quantum Borel has no distribution transport
    cfg = write_config(tmp_path, {"recipe": {"kind": "quantum-borel"}, "point": ["1"]})
    assert main(["module", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("unsupported: distribution transport")
    assert captured.out == ""


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # a fault inside a check is neither a verdict (exit 1) nor a report
    def broken(*args):
        raise AssertionError("check failed to replay")

    monkeypatch.setattr(cli, "preserves_lattice", broken)
    cfg = write_config(tmp_path, {"recipe": {"kind": "ore", "p": [1]}})
    out = tmp_path / "report.json"
    assert main(["verify", cfg, "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "internal error: AssertionError: check failed to replay" in err


def test_bounds_are_read_as_integers():
    config = {"recipe": {"kind": "ore", "p": [1]},
              "bounds": {"degree": "3", "jet_order": 2.0}}
    _, _, bounds = build_from_config(config, argparse.Namespace())
    assert bounds == {"degree": 3, "jet_order": 2, "word_length": 3,
                      "orbit_window": 8}
    assert all(type(v) is int for v in bounds.values())


def test_missing_config_file(capsys):
    assert main(["verify", "/nonexistent/config.json"]) == 2


def test_module_dump_weyl(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [1]},
        "point": ["0"],
        "bounds": {"jet_order": 3, "word_length": 3},
    })
    out = tmp_path / "report.json"
    code = main(["module", cfg, "--allow-truncation", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["module"]["dimension"] == 4
    assert doc["module"]["ordinary-weight-dim"] == 1
    assert doc["simple-quotient-dimension"] == 4
    assert doc["module"]["truncation-leaks"]["X"] is True
    # without the flag the leak is a failure
    assert main(["module", cfg, "--out", str(tmp_path / "r2.json")]) == 1


def test_module_jet_order_zero_is_character_line(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [0, 0, 1]},
        "point": ["0"],
    })
    out = tmp_path / "report.json"
    code = main(["module", cfg, "--jet-order", "1", "--word-length", "1",
                 "--allow-truncation", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["module"]["dimension"] == 1
    assert doc["scalar-family"]["status"] == "verified"


def test_module_reports_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [1]},
        "point": ["0"],
        "bounds": {"jet_order": 2, "word_length": 2},
    })
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["module", cfg, "--allow-truncation", "--out", str(a)])
    main(["module", cfg, "--allow-truncation", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_stabilizer_report(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "shift-flag", "n": 2, "group": "S2"},
        "point": ["1", "2"],
    })
    out = tmp_path / "report.json"
    assert main(["stabilizer", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "e" in doc["stabilizer"]
    assert doc["finiteness"]["finite"] is True
    assert all(r["status"] == "verified" for r in doc["reductors"])


def test_spherical_report(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "rational-differential", "n": 1, "group": "Z2"},
        "bounds": {"degree": 4, "word_length": 2},
    })
    out = tmp_path / "report.json"
    assert main(["spherical", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    checks = {c["check"]: c["status"] for c in doc["checks"]}
    assert checks["idempotent"] == "verified"
    assert checks["morita-witness"] == "verified"


def test_strict_inconclusive_exit(tmp_path):
    # the group ring alone is not Morita for the reflection group, so the
    # witness search is inconclusive at any bound; --strict surfaces it
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "rational-differential", "n": 1, "group": "Z2"},
        "generators": ["x1", "g"],
        "bounds": {"word_length": 2},
    })
    assert main(["spherical", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert main(["spherical", cfg, "--strict",
                 "--out", str(tmp_path / "r.json")]) == 3


def test_generators_filter_unknown_name(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [1]},
        "generators": ["nope"],
    })
    assert main(["verify", cfg]) == 2
    assert "nope" in capsys.readouterr().err


def test_extra_generators_alone_are_a_presentation(tmp_path):
    cfg = write_config(tmp_path, {
        "recipe": {"kind": "ore", "p": [1]}, "generators": [],
        "bounds": {"degree": 1, "word_length": 1},
        "extra_generators": [{"name": "d", "terms": [{"inf": [1]}]}]})
    assert main(["verify", cfg, "--out", str(tmp_path / "r.json")]) == 0
