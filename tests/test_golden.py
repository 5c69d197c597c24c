"""Golden reports: each small config must reproduce its committed report byte for byte.

``tests/golden/<name>.config.json`` is run through ``cli.main`` with the
subcommand and flags listed in ``CASES``; the report written by ``--out``
must equal ``tests/golden/<name>.report.json``.  A deliberate change of
output is recorded by rerunning the same command, for example::

    hopfgalois verify tests/golden/quantum-borel-verify.config.json \\
        --out tests/golden/quantum-borel-verify.report.json
"""

from pathlib import Path

import pytest

from hopfgalois.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (subcommand, extra flags, exit code)
CASES = {
    "quantum-borel-verify": ("verify", [], 0),
    "cherednik-s2-verify": ("verify", [], 0),
    "cherednik-s2-spherical": ("spherical", [], 0),
    "cherednik-s3-verify": ("verify", [], 0),
    "cherednik-s2-module": ("module", ["--allow-truncation"], 0),
    "rational-differential-z3-module": ("module", ["--allow-truncation"], 0),
    "trigonometric-inversion-verify": ("verify", [], 0),
    "trigonometric-inversion-module": ("module", ["--allow-truncation"], 0),
    "shift-flag-s2-stabilizer": ("stabilizer", [], 0),
    "shift-flag-s2-module": ("module", ["--allow-truncation"], 0),
    "gkv-hecke-a1-verify": ("verify", [], 0),
    "gkv-hecke-a1-module": ("module", [], 0),
    "ore-verify": ("verify", [], 0),
    "ore-module": ("module", [], 0),
    "gkv-hecke-a1-additive-verify": ("verify", [], 0),
    "gkv-hecke-a2-additive-verify": ("verify", [], 0),
    "rational-differential-s2-verify": ("verify", [], 0),
    "shift-flag-s2-verify": ("verify", [], 0),
    "rational-differential-s2-spherical": ("spherical", [], 0),
    "gkv-hecke-a1-spherical": ("spherical", [], 0),
    "gkv-hecke-a1-stabilizer": ("stabilizer", [], 0),
    "cherednik-z2-checks-strict": ("verify", ["--strict"], 3),
    "rational-differential-z2-spherical-strict": ("spherical", ["--strict"], 3),
    "ore-counterexample-verify": ("verify", [], 1),
}


def test_every_golden_config_has_a_case():
    names = {p.name[:-len(".config.json")] for p in GOLDEN.glob("*.config.json")}
    assert names == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    command, flags, code = CASES[name]
    out = tmp_path / "report.json"
    argv = [command, str(GOLDEN / ("%s.config.json" % name)), "--out", str(out)]
    assert main(argv + flags) == code
    assert out.read_bytes() == (GOLDEN / ("%s.report.json" % name)).read_bytes()
