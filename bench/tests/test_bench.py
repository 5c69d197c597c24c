"""Tests of the benchmark's own code: tracing, seeding and outcome records."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
for p in (str(SRC), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_synthetic_span_tree():
    # cli.main (10 s) -> verify.check (6 s) -> params.mul (1 s, twice)
    #                 -> linalg.solve (3 s, aggregated) -> params.mul (2 s)
    clock = FakeClock()
    t = spans.Tracer(clock=clock)

    def mul(dt):
        clock.advance(dt)

    def solve():
        clock.advance(0.5)
        w_mul(2.0)
        clock.advance(0.5)

    def check():
        clock.advance(1.0)
        w_mul(1.0)
        w_mul(1.0)
        w_solve()
        clock.advance(0.0)

    def main():
        clock.advance(4.0)
        w_check()

    w_mul = t.wrap(mul, "params.ParamElem.__mul__", "params")
    w_solve = t.wrap(solve, "linalg.solve", "linalg")
    w_check = t.wrap(check, "verify.check", "verify")
    w_main = t.wrap(main, "cli.main", "cli")
    w_main()

    data = t.dump()
    by_name = {s[1]: s for s in data["spans"]}
    main_span, check_span = by_name["cli.main"], by_name["verify.check"]
    assert main_span[2] == 0 and check_span[2] == main_span[0]
    assert main_span[4] - main_span[3] == pytest.approx(10.0)
    assert main_span[5] == pytest.approx(6.0)           # covered by check
    assert check_span[4] - check_span[3] == pytest.approx(6.0)
    assert check_span[5] == pytest.approx(5.0)          # 2 muls + solve
    # aggregated per (function, enclosing driver span)
    records = {(r[0], r[1]): r[2:] for r in data["records"]}
    assert records[("params.ParamElem.__mul__", check_span[0])] == \
        pytest.approx([3, 4.0, 0.0])
    assert records[("linalg.solve", check_span[0])] == pytest.approx([1, 3.0, 2.0])

    m = run.layer_metrics([data])
    assert m["cli.self_s"][0] == pytest.approx(4.0)
    assert m["verify.self_s"][0] == pytest.approx(1.0)
    assert m["linalg.self_s"][0] == pytest.approx(1.0)
    assert m["params.self_s"][0] == pytest.approx(4.0)
    assert m["params.calls"][0] == 3
    assert m["linalg.incl_s"][0] == pytest.approx(3.0)
    # self times add up to the root's duration
    assert sum(m[l + ".self_s"][0] for l in spans.LAYERS) == pytest.approx(10.0)


def test_wrapper_patches_every_module_that_bound_a_name():
    importlib.import_module("hopfgalois.cli")
    from hopfgalois import cli, hcmod, polyring, spherical
    import hopfgalois
    originals = {
        "try_divide": polyring.try_divide,
        "taylor_jet": polyring.taylor_jet,
        "stab_group": sys.modules["hopfgalois.stabilizer"].stab_group,
        "preserves_lattice": sys.modules["hopfgalois.verify"].preserves_lattice,
    }
    holders = {"try_divide": (polyring, spherical, hopfgalois),
               "taylor_jet": (polyring, hcmod, hopfgalois),
               "stab_group": (hcmod, cli),
               "preserves_lattice": (cli,)}
    t = spans.Tracer()
    t.install()
    try:
        for name, mods in holders.items():
            for mod in mods:
                bound = getattr(mod, name)
                assert bound is not originals[name], (mod.__name__, name)
                assert bound.__wrapped__ is originals[name]
        # no hopfgalois module still holds an unwrapped target function
        wrapped = {id(f) for f in originals.values()}
        for mod_name, mod in sys.modules.items():
            if mod_name.split(".")[0] == "hopfgalois":
                assert not [k for k, v in vars(mod).items() if id(v) in wrapped]
    finally:
        t.uninstall()
    for name, mods in holders.items():
        for mod in mods:
            assert getattr(mod, name) is originals[name]


def test_traced_arithmetic_is_counted_and_unchanged():
    from hopfgalois.params import ParamField
    pf = ParamField(("q",))
    q = pf.param("q")
    plain = str((q + 1) * (q - 1) / (q + 1))
    t = spans.Tracer()
    t.install()
    try:
        traced = str((q + 1) * (q - 1) / (q + 1))
    finally:
        t.uninstall()
    assert traced == plain
    m = run.layer_metrics([t.dump()])
    assert m["params.calls"][0] >= 4
    assert m["params.peak_terms"][0] >= 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_config_is_valid_and_deterministic(name):
    import argparse
    from hopfgalois import cli
    w = workloads.WORKLOADS[name]
    assert workloads.make_config(w, 0) == workloads.base_config(w)
    for seed in (1, 2, 17):
        config = workloads.make_config(w, seed)
        assert config == workloads.make_config(w, seed)
        setting, presentation, _ = cli.build_from_config(
            config, argparse.Namespace())
        assert setting.ring.nvars == w.nvars
        if w.seeding == "extra-generator":
            (extra,) = config["extra_generators"]
            (term,) = extra["terms"]
            assert int(term["scalar"]) != 0
            assert setting.group_names[term["group"]] in ("s1*s2", "s2*s1")
            assert sorted(term["num_exps"]) == [0] * (w.nvars - 2) + [1, 1]
            assert presentation.names()[-1] == workloads.EXTRA_NAME
        if w.seeding == "point":
            assert [abs(int(c)) for c in config["point"]] == [1, 2]
            cli.parse_point(setting, config["point"])
    if w.seeding != "none":
        seeded = [json.dumps(workloads.make_config(w, s)) for s in range(1, 9)]
        assert len(set(seeded)) > 1


def test_timeout_is_recorded_not_dropped(tmp_path):
    w = workloads.WORKLOADS["verify-gkv-a2"]
    r = run.Run(w, 0, tmp_path)
    r.cap = lambda: 0.05
    (result,) = r.round()
    assert result.outcome == run.TIMEOUT and result.exit_code is None
    assert result.wall_s >= 0.05
    assert r.tally() == (True, 1, 1)


@pytest.mark.parametrize("code,stderr,report,outcome", [
    (1, b"Traceback (most recent call last):\n  ...\nZeroDivisionError\n",
     None, run.CRASH),
    (1, b"", json.dumps({"checks": [{"check": "x", "status": "counterexample"}]}),
     run.COUNTEREXAMPLE),
    (2, b"usage error: missing config field\n", None, run.WRONG_EXIT),
    (-9, b"", None, run.CRASH),
    (0, b"", json.dumps({"checks": [{"check": "x", "status": "verified"}]}),
     run.OK),
    (0, b"", json.dumps({"checks": [{"check": "x", "status": "inconclusive"}]}),
     run.WRONG_VERDICT),
])
def test_classify_tells_a_crash_from_a_verdict(code, stderr, report, outcome):
    expected = {"exit_code": 0, "verdict": {"checks": [["x", "verified"]]}}
    if report is not None:
        report = report.encode()
    assert run.classify(code, stderr, report, expected, 0) == outcome


def test_seeded_extra_check_goes_after_the_last_probe():
    exp = workloads.load_expected(workloads.WORKLOADS["verify-gkv-a2"])
    (inv,) = exp["invocations"]
    checks = run.expected_verdict(inv, 5)["checks"]
    assert len(checks) == len(inv["verdict"]["checks"]) + 1
    assert checks[10] == ["max-commutative-probe", "verified"]
    assert checks[11][0] == "lattice-splitting"
    assert run.expected_verdict(inv, 0) == inv["verdict"]
