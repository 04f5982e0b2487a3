import gc
import io
import json
import random
import signal
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import soldyn
from soldyn import PeriodicPL
from soldyn.cli import main
from genutil import run_python

HALFMAP = {
    "degree": 1,
    "variant": "pl",
    "breakpoints": [["0", "1/2"], ["1/2", "1"]],
}
FIXEDPOINT_HOMEO = {
    "degree": 1,
    "offset": 0,
    "lift": {"degree": 1, "variant": "pl", "breakpoints": [["0", "0"], ["1/2", "3/4"]]},
}
ROT35_HOMEO = {
    "degree": 1,
    "offset": 0,
    "lift": {"degree": 1, "variant": "pl", "breakpoints": [["0", "3/5"]]},
}
LP4 = {
    "lp": {
        "tower": [1, 2, 6, 24],
        "summands": [
            {"period": "1", "breakpoints": [["0", "0"], ["1/2", "1/4"]]},
            {"period": "2", "breakpoints": [["0", "0"], ["1", "1/16"]]},
            {"period": "6", "breakpoints": [["0", "0"], ["3", "1/64"]]},
            {"period": "24", "breakpoints": [["0", "0"], ["12", "1/256"]]},
        ],
        "tail_bound": "1/768",
    }
}
GOLDEN = {"degree": 1, "variant": "analytic", "alpha": 0.6180339887498949, "terms": []}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path: Path, name: str, obj) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def test_rotation_halfmap(runner, tmp_path):
    path = write(tmp_path, "half.json", HALFMAP)
    res = runner.invoke(main, ["rotation", "--input", path, "--iters", "10"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep == {"lo": "2/5", "hi": "3/5", "exact": "1/2", "witness": "0"}


def test_rotation_rigid_certified(runner, tmp_path):
    path = write(tmp_path, "rot.json", ROT35_HOMEO)
    res = runner.invoke(main, ["rotation", "--input", path, "--iters", "100"])
    assert res.exit_code == 0
    assert json.loads(res.output)["exact"] == "3/5"


def test_rotation_analytic_enclosure_only(runner, tmp_path):
    path = write(tmp_path, "golden.json", GOLDEN)
    res = runner.invoke(main, ["rotation", "--input", path, "--iters", "100"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["exact"] is None
    assert Fraction(rep["lo"]) < Fraction(0.6180339887498949) < Fraction(rep["hi"])


def test_rotation_malformed_json_exits_2(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    res = runner.invoke(main, ["rotation", "--input", str(p)])
    assert res.exit_code == 2


def test_rotation_missing_file_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["rotation", "--input", str(tmp_path / "no.json")])
    assert res.exit_code == 2


def test_orbit_fixedpoint_distances_decrease(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    res = runner.invoke(
        main, ["orbit", "--input", path, "--start", "1/2", "--iters", "12"]
    )
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "iter,x," + ",".join(f"r{m}" for m in range(1, 9)) + ",dist_to_target"
    dists = [Fraction(line.split(",")[-1]) for line in lines[1:]]
    assert len(dists) == 12
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_orbit_rigid_rotation_zero_distance(runner, tmp_path):
    path = write(tmp_path, "rot.json", ROT35_HOMEO)
    res = runner.invoke(
        main, ["orbit", "--input", path, "--start", "1/7", "--iters", "20"]
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()[1:]
    for i, line in enumerate(lines):
        if i % 5 == 0:
            assert Fraction(line.split(",")[-1]) == 0


def test_orbit_at_depth_ten_thousand_ends():
    # every row prints 10^4 residues; each walk over the levels builds m! from (m - 1)!
    path = Path(__file__).resolve().parents[1] / "descriptors" / "fixedpoint_homeo.json"
    res = run_python("-m", "soldyn", "orbit", "--input", str(path), "--iters", "5",
                     "--start", "1/3", "--depth", "10000", timeout=20)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 6
    assert all(len(line.split(",")) == 10_003 for line in lines)


def test_orbit_budget_zero_header_only(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    res = runner.invoke(main, ["orbit", "--input", path, "--iters", "0"])
    assert res.exit_code == 0
    assert res.stdout.strip().splitlines() == [
        "iter,x," + ",".join(f"r{m}" for m in range(1, 9)) + ",dist_to_target"
    ]


def test_orbit_analytic_fails_with_exit_1(runner, tmp_path):
    path = write(tmp_path, "golden.json", GOLDEN)
    res = runner.invoke(main, ["orbit", "--input", path])
    assert res.exit_code == 1


def test_orbit_point_literal_start_and_explicit_pq(runner, tmp_path):
    path = write(tmp_path, "rot.json", ROT35_HOMEO)
    res = runner.invoke(
        main,
        ["orbit", "--input", path, "--start", "x=1/4; k=(0, 1, 1, 1, 1, 1, 1, 1)",
         "--iters", "3", "--p", "3", "--q-return", "5"],
    )
    assert res.exit_code == 0, res.output
    first = res.output.strip().splitlines()[1].split(",")
    assert first[1] == "1/4" and first[3] == "1"


def test_semiconj_exact(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    res = runner.invoke(
        main, ["semiconj", "--input", path, "--samples", "40", "--seed", "3"]
    )
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["exact"] is True and rep["max_error"] == "0" and rep["samples"] == 40


def test_hull_report(runner, tmp_path):
    path = write(tmp_path, "half.json", HALFMAP)
    res = runner.invoke(main, ["hull", "--input", path, "--iters", "50"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["classification"] == "periodic"
    assert rep["period"] == "1"
    assert rep["g_rotation"]["exact"] == "1/2"


def test_hull_decides_the_minimal_period_once(runner, tmp_path, monkeypatch):
    # the leaf lift's table decides the period; the Fraction route is not run
    calls = []

    def counting(name, fn):
        def wrapper(arg):
            calls.append(name)
            return fn(arg)
        return wrapper

    for mod in (soldyn.circlemaps, soldyn.hull):
        monkeypatch.setattr(mod, "minimal_period", counting("minimal_period", mod.minimal_period))
    quotient = counting("leaf_quotient", soldyn.hull.leaf_quotient)
    monkeypatch.setattr(soldyn.hull, "leaf_quotient", quotient)
    for name, desc in (("half", HALFMAP), ("fixed", FIXEDPOINT_HOMEO), ("rot", ROT35_HOMEO)):
        calls.clear()
        res = runner.invoke(main, ["hull", "--input", write(tmp_path, f"{name}.json", desc)])
        assert res.exit_code == 0, res.output
        assert calls == ["leaf_quotient"]


def test_hull_on_analytic_base_exits_1(runner):
    path = str(Path(__file__).resolve().parents[1] / "descriptors" / "golden_analytic.json")
    res = runner.invoke(main, ["hull", "--input", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output


def test_hull_lp_report(runner, tmp_path):
    path = write(tmp_path, "lp.json", LP4)
    res = runner.invoke(main, ["hull", "--input", path])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["classification"] == "limit_periodic_certified"
    assert rep["tower"] == [1, 2, 6, 24]


def test_density_csv_bounds(runner, tmp_path):
    path = write(tmp_path, "lp.json", LP4)
    res = runner.invoke(main, ["density", "--input", path, "--samples", "200"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "level,period,certified_bound,sup_gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        assert Fraction(r[3]) <= Fraction(r[2])


def test_density_svg(runner, tmp_path):
    path = write(tmp_path, "lp.json", LP4)
    out = tmp_path / "chart.svg"
    res = runner.invoke(
        main,
        ["density", "--input", path, "--samples", "64", "--format", "svg",
         "--out", str(out)],
    )
    assert res.exit_code == 0
    text = out.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_density_on_wrong_input_exits_2(runner, tmp_path):
    path = write(tmp_path, "half.json", HALFMAP)
    res = runner.invoke(main, ["density", "--input", path])
    assert res.exit_code == 2


def test_out_file_written(runner, tmp_path):
    path = write(tmp_path, "half.json", HALFMAP)
    out = tmp_path / "rep.json"
    res = runner.invoke(
        main, ["rotation", "--input", path, "--iters", "10", "--out", str(out)]
    )
    assert res.exit_code == 0 and res.output == ""
    assert json.loads(out.read_text())["exact"] == "1/2"


SUBCOMMANDS = ("rotation", "orbit", "semiconj", "hull", "density")


def assert_usage_error(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no traceback


def test_json_list_descriptor_exits_2(runner, tmp_path):
    path = write(tmp_path, "list.json", [HALFMAP])
    for sub in SUBCOMMANDS:
        assert_usage_error(runner.invoke(main, [sub, "--input", path]))
    nested = write(tmp_path, "nested.json", {"degree": 1, "offset": 0, "lift": [1]})
    assert_usage_error(runner.invoke(main, ["rotation", "--input", nested]))
    lp = write(tmp_path, "lp.json", {"lp": ["tower"]})
    assert_usage_error(runner.invoke(main, ["density", "--input", lp]))


def test_division_by_zero_breakpoint_exits_2(runner, tmp_path):
    bad = {"degree": 1, "variant": "pl", "breakpoints": [["0", "1/0"]]}
    path = write(tmp_path, "zero.json", bad)
    assert_usage_error(runner.invoke(main, ["rotation", "--input", path]))
    lp = {"lp": {**LP4["lp"], "tail_bound": "1/0"}}
    assert_usage_error(runner.invoke(main, ["density", "--input", write(tmp_path, "lp.json", lp)]))


def test_non_finite_alpha_exits_2(runner, tmp_path):
    for alpha in ("nan", "inf"):
        path = write(tmp_path, "nan.json", {**GOLDEN, "alpha": alpha})
        assert_usage_error(runner.invoke(main, ["rotation", "--input", path]))


def test_iters_zero_exits_2_for_rotation_and_hull(runner, tmp_path):
    path = write(tmp_path, "half.json", HALFMAP)
    for sub in ("rotation", "hull"):
        assert_usage_error(runner.invoke(main, [sub, "--input", path, "--iters", "0"]))


def test_depth_zero_exits_2_on_orbit_and_semiconj(runner, tmp_path):
    half = write(tmp_path, "half.json", HALFMAP)
    for sub in ("orbit", "semiconj"):
        res = runner.invoke(main, [sub, "--input", half, "--depth", "0"])
        assert_usage_error(res)
        assert "'--depth'" in res.stderr and "0 is not in the range" in res.stderr


# each subcommand declares only the flags it reads
FLAGS = {
    "rotation": {"--input", "--iters", "--out"},
    "orbit": {"--input", "--depth", "--iters", "--start", "--p", "--q-return", "--out"},
    "semiconj": {"--input", "--depth", "--samples", "--seed", "--out"},
    "hull": {"--input", "--iters", "--out"},
    "density": {"--input", "--samples", "--format", "--out"},
}
FLAG_VALUE = {"--depth": "8", "--iters": "10", "--samples": "5", "--seed": "1", "--format": "json"}


def test_subcommands_declare_only_the_flags_they_read():
    assert sum(map(len, FLAGS.values())) == 22
    for sub, flags in FLAGS.items():
        params = main.commands[sub].params
        assert {opt for p in params for opt in p.opts if opt.startswith("--")} == flags, sub


def test_removed_flag_exits_2(runner, tmp_path):
    half = write(tmp_path, "half.json", HALFMAP)
    lp = write(tmp_path, "lp.json", LP4)
    for sub, flags in FLAGS.items():
        path = lp if sub == "density" else half
        for flag in set(FLAG_VALUE) - flags:
            res = runner.invoke(main, [sub, "--input", path, flag, FLAG_VALUE[flag]])
            assert_usage_error(res)
            assert "No such option" in res.stderr and flag in res.stderr


DEG3_HOMEO = {
    "degree": 3,
    "offset": 1,
    "lift": {"degree": 3, "variant": "pl", "breakpoints": [["0", "0"], ["3/2", "2"]]},
}


def test_orbit_depth_too_shallow_for_degree_exits_2(runner, tmp_path):
    # 3 does not divide 2!: a usage mistake, not a missing orbit target
    path = write(tmp_path, "d3.json", DEG3_HOMEO)
    res = runner.invoke(
        main, ["orbit", "--input", path, "--depth", "2", "--p", "1", "--q-return", "1"]
    )
    assert_usage_error(res)
    assert "--depth" in res.stderr and "not found" not in res.stderr


def test_semiconj_depth_too_shallow_for_degree_exits_2(runner, tmp_path):
    path = write(tmp_path, "d3.json", DEG3_HOMEO)
    res = runner.invoke(main, ["semiconj", "--input", path, "--depth", "2"])
    assert_usage_error(res)
    assert "--depth" in res.stderr
    assert runner.invoke(main, ["semiconj", "--input", path, "--depth", "3"]).exit_code == 0


def _semiconj_samples(runner, tmp_path, n):
    path = write(tmp_path, "half.json", HALFMAP)
    return runner.invoke(main, ["semiconj", "--input", path, "--samples", str(n)])


def test_semiconj_zero_samples_exits_2(runner, tmp_path):
    res = _semiconj_samples(runner, tmp_path, 0)
    assert_usage_error(res)
    assert "--samples" in res.stderr


def test_semiconj_negative_samples_exits_2(runner, tmp_path):
    res = _semiconj_samples(runner, tmp_path, -3)
    assert_usage_error(res)
    assert "--samples" in res.stderr
    assert _semiconj_samples(runner, tmp_path, 1).exit_code == 0


def _density_samples(runner, tmp_path, n):
    path = write(tmp_path, "lp.json", LP4)
    return runner.invoke(main, ["density", "--input", path, "--samples", str(n)])


def test_density_zero_samples_exits_2(runner, tmp_path):
    res = _density_samples(runner, tmp_path, 0)
    assert_usage_error(res)
    assert "--samples" in res.stderr


def test_density_negative_samples_exits_2(runner, tmp_path):
    res = _density_samples(runner, tmp_path, -5)
    assert_usage_error(res)
    assert "--samples" in res.stderr
    assert _density_samples(runner, tmp_path, 1).exit_code == 0


def _injected_fault(*args, **kwargs):
    raise soldyn.BreakpointCapExceeded("injected fault")


# one library call per subcommand, and an input that reaches it
LIBRARY_CALL = {
    "rotation": (soldyn.dynamics, "rotation_report", HALFMAP),
    "orbit": (soldyn.dynamics, "rotation_report", FIXEDPOINT_HOMEO),
    "semiconj": (soldyn.hull, "check_semiconjugacy", FIXEDPOINT_HOMEO),
    "hull": (soldyn.hull, "leaf_quotient", HALFMAP),
    "density": (soldyn.LimitPeriodicHomeo, "sup_gaps", LP4),
}


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_library_error_exits_1_on_every_subcommand(runner, tmp_path, monkeypatch, sub):
    owner, name, desc = LIBRARY_CALL[sub]
    monkeypatch.setattr(owner, name, _injected_fault)
    res = runner.invoke(main, [sub, "--input", write(tmp_path, "in.json", desc)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert "injected fault" in res.stderr


def test_tol_option_is_gone(runner, tmp_path):
    path = write(tmp_path, "half.json", HALFMAP)
    assert_usage_error(runner.invoke(main, ["rotation", "--input", path, "--tol", "1/2"]))


def test_bad_start_and_non_utf8_input_exit_2(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    for start in ("abc", "1/0", "x=1/4; k=(1)"):
        assert_usage_error(runner.invoke(main, ["orbit", "--input", path, "--start", start]))
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"variant": "\xff"}')
    assert_usage_error(runner.invoke(main, ["rotation", "--input", str(raw)]))


def test_rotation_on_bare_degree_two_map_exits_1(runner, tmp_path):
    deg2 = {"degree": 2, "variant": "pl", "breakpoints": [["0", "1/2"]]}
    res = runner.invoke(main, ["rotation", "--input", write(tmp_path, "d2.json", deg2)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)


DEG2_HOMEO = {
    "degree": 2,
    "offset": 0,
    "lift": {"degree": 2, "variant": "pl", "breakpoints": [["0", "0"], ["1", "3/2"]]},
}


@pytest.mark.parametrize("sub, desc", [
    ("rotation", {"degree": 1.9, "variant": "pl", "breakpoints": [["0", "1/2"]]}),
    ("rotation", {**DEG2_HOMEO, "offset": 0.7}),
    ("rotation", {"degree": True, "variant": "pl", "breakpoints": [["0", "1/2"]]}),
    ("hull", {**ROT35_HOMEO, "degree": True}),
    ("rotation", {"degree": "3", "variant": "pl", "breakpoints": [["0", "1/2"]]}),
    ("density", {"lp": {**LP4["lp"], "tower": [1, 2, 6, "24"]}}),
    ("density", {"lp": {**LP4["lp"], "tower": [1, 2.0, 6, 24]}}),
], ids=["degree-1.9", "offset-0.7", "degree-true", "homeo-degree-true", "degree-string",
        "tower-string", "tower-float"])
def test_descriptor_integers_must_be_json_integers(runner, tmp_path, sub, desc):
    iters = [] if sub == "density" else ["--iters", "7"]
    res = runner.invoke(main, [sub, *iters, "--input", write(tmp_path, "d.json", desc)])
    assert_usage_error(res)
    assert "invalid descriptor" in res.stderr and "JSON integer" in res.stderr


@pytest.mark.parametrize("sub, desc", [
    ("rotation", {**HALFMAP, "breakpoints": [["0", True], ["1/2", "3/2"]]}),
    ("density", {"lp": {**LP4["lp"], "summands": [
        {"period": True, "breakpoints": [["0", "0"]]}, *LP4["lp"]["summands"][1:]]}}),
    ("density", {"lp": {**LP4["lp"], "tail_bound": 0.1}}),
    ("density", {"lp": {**LP4["lp"], "tail_bound": True}}),
], ids=["breakpoint-true", "period-true", "tail-bound-float", "tail-bound-true"])
def test_booleans_and_floats_are_not_exact_rationals(runner, tmp_path, sub, desc):
    res = runner.invoke(main, [sub, "--input", write(tmp_path, "d.json", desc)])
    assert_usage_error(res)
    assert "invalid descriptor" in res.stderr, res.stderr


@pytest.mark.parametrize("sub", ["density", "hull"])
def test_a_non_integer_summand_period_exits_2(runner, tmp_path, sub):
    summands = [{"period": "3/2", "breakpoints": [["0", "0"], ["1", "1/16"]]}]
    desc = {"lp": {**LP4["lp"], "summands": summands + LP4["lp"]["summands"][1:]}}
    res = runner.invoke(main, [sub, "--input", write(tmp_path, "d.json", desc)])
    assert_usage_error(res)
    assert "invalid descriptor" in res.stderr and "period 3/2 is not an integer" in res.stderr


# malformed descriptors: one field of a valid descriptor replaced by a bad value

_HUGE_LITERALS = ["1e100000000", "1e-100000000"]  # past the digit limit
_BAD_RATIONAL = st.sampled_from(
    ["1/0", "0/0", "x", "", "nan", "inf", "1/2/3", "--1", 0.5, float("nan"), None, [], {},
     True, False, *_HUGE_LITERALS]
)
_BAD_PAIR = st.one_of(
    st.tuples(_BAD_RATIONAL, st.sampled_from(["0", "1/2"])).map(list),
    st.tuples(st.sampled_from(["0", "1/2"]), _BAD_RATIONAL).map(list),
    st.sampled_from([None, 3, [], ["0"], ["0", "1/2", "1"]]),
)
_GOOD_PAIR = st.sampled_from([["0", "1/2"], ["1/4", "3/4"], ["1/2", "1"]])
_BAD_BREAKPOINTS = st.one_of(
    st.sampled_from([None, 5, "01", "", [], {}]),
    st.lists(_GOOD_PAIR, max_size=3).flatmap(
        lambda good: st.builds(
            lambda bad, i: good[:i] + [bad] + good[i:], _BAD_PAIR, st.integers(0, len(good))
        )
    ),
)
_BAD_DEGREE = st.one_of(
    st.integers(max_value=0),
    st.sampled_from(["x", "", "1/2", "1", None, [], {}, float("nan"), float("inf"), 1.0, True]),
)
_BAD_SCALAR = st.sampled_from(["nan", "inf", "-inf", "x", "", None, [], {}, float("nan"), float("inf")])
_BAD_TERMS = st.sampled_from(
    [5, None, "x", [["nan", 1.0]], [[0.01]], [[0.01, 0]], [[0.5, 1.0]], [[0.01, 0.7]],
     [[0.01, "inf"]], [[1e308, 1e-308]]]
)
_NOT_AN_OBJECT = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


def _corrupt(base: dict, bad: dict):
    """Replace (or, with value `...`, delete) one field of `base`."""
    items = [st.tuples(st.just(k), v) for k, v in bad.items()]
    return st.one_of(items).map(
        lambda kv: {k: v for k, v in {**base, kv[0]: kv[1]}.items() if v is not ...}
    )


_PL_BAD = _corrupt(HALFMAP, {
    "breakpoints": _BAD_BREAKPOINTS | st.just(...),
    "degree": _BAD_DEGREE,
    "variant": st.one_of(st.text(max_size=8).filter(lambda v: v not in ("pl", "analytic")),
                         st.none(), st.integers()),
})
_ANALYTIC_BAD = _corrupt(
    {**GOLDEN, "terms": [[0.01, 1.0]]},
    {"alpha": _BAD_SCALAR | st.just(...), "terms": _BAD_TERMS, "degree": _BAD_DEGREE},
)
_MAP_BAD = _PL_BAD | _ANALYTIC_BAD
_HOMEO_BAD = _corrupt(ROT35_HOMEO, {
    "lift": _MAP_BAD | _NOT_AN_OBJECT,
    "offset": st.sampled_from(
        ["x", "1/2", "0", "", None, [], {}, float("nan"), float("inf"), 0.0, 0.7, False]
    ),
    "degree": _BAD_DEGREE,
})
_LP_BODY_BAD = _corrupt(LP4["lp"], {
    "tower": st.sampled_from([[1, 2, 5, 24], [1, 2, 6], [1, 0, 6, 24], [1, 2, 6, "24"],
                              [True, 2, 6, 24], [1, 2.0, 6, 24], "x", None, 7]),
    "summands": st.sampled_from([None, "x", 3, [], [{"period": "1"}]]
                                + [[{"period": p, "breakpoints": [["0", "0"]]}] for p in _HUGE_LITERALS])
    | st.just(...),
    "tail_bound": _BAD_SCALAR | st.sampled_from([0.1, True, False, *_HUGE_LITERALS]),
})


class _Text(str):
    """A descriptor file's text, for nestings `json.dumps` cannot write."""


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


_TOO_DEEP = st.sampled_from([5_000, 200_000]).flatmap(lambda depth: st.sampled_from([
    _Text(_nested(depth)),
    _Text('{"degree": 1, "variant": "pl", "breakpoints": %s}' % _nested(depth)),
    _Text('{"lp": {"tower": [1], "tail_bound": "0", "summands": %s}}' % _nested(depth)),
]))
_MALFORMED = st.one_of(
    _NOT_AN_OBJECT,
    _MAP_BAD,
    _HOMEO_BAD,
    _LP_BODY_BAD.map(lambda body: {"lp": body}),
    _NOT_AN_OBJECT.map(lambda body: {"lp": body}),
    _TOO_DEEP,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(desc=_MALFORMED, sub=st.sampled_from(SUBCOMMANDS))
def test_malformed_descriptors_exit_2_without_traceback(tmp_path, desc, sub):
    if isinstance(desc, _Text):
        path = tmp_path / "fuzz.json"
        path.write_text(desc, encoding="utf-8")
        path = str(path)
    else:
        path = write(tmp_path, "fuzz.json", desc)
    res = CliRunner().invoke(main, [sub, "--input", path])
    assert_usage_error(res)


# seeded descriptor fuzz: every subcommand ends within a few seconds with an
# exit code of the contract and no traceback, on inputs past the happy path

_FUZZ_SECONDS = 5
_HUGE = [2, 6, 10**6, 2**64, 10**30, 10**100]
_NOT_INT = [1.5, 1.9, 2.0, True, False, "3", "1/2", None, [], {}]
_LITERALS = ["1/0", "x", "", "nan", "inf", "1/2/3", "0x10", "--1", "9" * 5000, "7/8", "-1/3",
             "1e100000000", "1e-100000000", "1.5e4301"]


class _TooSlow(BaseException):
    """Raised by the interval timer in a run that outlasts its budget; a
    BaseException, so neither the CLI nor CliRunner swallows it."""


def _fuzz_descriptor(rng):
    kind = rng.randrange(6)
    if kind == 0:  # huge degrees, bare or induced, degree-matched or not
        n = rng.choice(_HUGE)
        bps = [["0", rng.choice(["0", "1/2", "1/3"])], ["1/2", "3/4"]][: rng.randint(1, 2)]
        lift = {"degree": n, "variant": "pl", "breakpoints": bps}
        if rng.random() < 0.5:
            return lift
        return {"degree": rng.choice([n, n, n + 1]), "offset": rng.choice([0, 1, -2, 10**40]),
                "lift": lift}
    if kind == 1:  # an integer field that is not a JSON integer
        base = rng.choice([HALFMAP, ROT35_HOMEO, DEG2_HOMEO])
        return {**base, rng.choice(["degree", "offset"]): rng.choice(_NOT_INT)}
    if kind == 2:  # empty or duplicate breakpoints
        bps = rng.choice([[], [["0", "1/2"], ["0", "3/4"]], [["1/2", "1"], ["1/2", "1"]],
                          [["0", "1/2"], ["1/4", "1/2"]]])
        if rng.random() < 0.5:
            return {**HALFMAP, "breakpoints": bps}
        return {"lp": {**LP4["lp"], "summands": [
            {"period": "1", "breakpoints": bps}, *LP4["lp"]["summands"][1:]]}}
    if kind == 3:  # bad literals in breakpoints, periods and tail bounds
        lit = rng.choice(_LITERALS)
        return rng.choice([
            {**HALFMAP, "breakpoints": [["0", lit]]},
            {**ROT35_HOMEO, "lift": {**HALFMAP, "breakpoints": [[lit, "1/2"]]}},
            {"lp": {**LP4["lp"], "tail_bound": lit}},
            {"lp": {**LP4["lp"], "summands": [{"period": lit, "breakpoints": [["0", "0"]]}]}},
        ])
    if kind == 4:  # broken lp chains
        tower = rng.choice([[1, 3, 6, 24], [2, 1, 6, 24], [1, 2, 6], [1, 2, 6, 24, 48],
                            [0, 2, 6, 24], [-1, 2, 6, 24], [], [1, 2, 6, "24"], [1, 2, 6, 10**30]])
        return {"lp": {**LP4["lp"], "tower": tower}}
    # a valid lp tower whose top period is huge
    T = rng.choice(_HUGE[2:])
    return {"lp": {"tower": [1, T], "tail_bound": "0", "summands": [
        LP4["lp"]["summands"][0], {"period": str(T), "breakpoints": [["0", "0"], ["1", "1/16"]]}]}}


_FUZZ_ARGS = {
    "rotation": ["--iters", "20"],
    "orbit": ["--iters", "10"],
    "semiconj": ["--samples", "10"],
    "hull": ["--iters", "20"],
    "density": [],
}


def test_seeded_descriptor_fuzz_keeps_the_exit_code_contract(runner, tmp_path):
    def too_slow(signum, frame):
        raise _TooSlow

    rng = random.Random(2017)
    # first the rigid rotation of degree 10^30 whose degree-n sweep once ran
    # without bound under rotation and hull
    big = {"degree": 10**30, "variant": "pl", "breakpoints": [["0", "1/2"]]}
    descs = [{"degree": 10**30, "offset": 0, "lift": big}]
    descs += [_fuzz_descriptor(rng) for _ in range(40)]
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        for i, desc in enumerate(descs):
            path = write(tmp_path, f"fuzz{i}.json", desc)
            for sub in SUBCOMMANDS:
                args = [sub, "--input", path, *_FUZZ_ARGS[sub]]
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, _FUZZ_SECONDS)
                try:
                    res = runner.invoke(main, args)
                except _TooSlow:
                    pytest.fail(f"{args} ran past {_FUZZ_SECONDS} s on {str(desc)[:200]}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert time.perf_counter() - start < _FUZZ_SECONDS
                assert res.exit_code in (0, 1, 2), (args, str(desc)[:200], res.output)
                assert res.exception is None or isinstance(res.exception, SystemExit), (
                    args, str(desc)[:200], res.exception
                )
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_result_past_the_digit_limit_exits_1_without_traceback(tmp_path):
    # parses fine, but the enclosure and the sup norm hold 10^5000, whose
    # str() passes the interpreter's 4300-digit limit
    path = tmp_path / "tiny.json"
    path.write_text(
        '{"degree": 1, "variant": "pl", "breakpoints": [["0","1e-5000"]]}', encoding="utf-8"
    )
    for args in (["rotation", "--iters", "7"], ["hull", "--iters", "5"]):
        res = run_python("-m", "soldyn", *args, "--input", str(path))
        assert res.returncode == 1 and res.stdout == "", (args, res.stderr)
        assert "Traceback" not in res.stderr and len(res.stderr.splitlines()) == 1, res.stderr
        assert "digits" in res.stderr


def test_json_nested_too_deep_exits_2_without_traceback(tmp_path):
    # the JSON decoder's RecursionError is a parse error of the input file
    path = tmp_path / "deep.json"
    path.write_text(_nested(200_000), encoding="utf-8")
    for sub in SUBCOMMANDS:
        res = run_python("-m", "soldyn", sub, "--input", str(path), timeout=30)
        assert res.returncode == 2 and res.stdout == "", (sub, res.stderr)
        assert "Traceback" not in res.stderr and "nesting too deep" in res.stderr, res.stderr


def test_literals_past_the_digit_limit_exit_2_quickly(tmp_path):
    # 10^(10^8) is refused from its text, before Fraction would build it
    huge = "1e100000000"
    period = {"lp": {**LP4["lp"], "summands": [{"period": huge, "breakpoints": [["0", "0"]]}]}}
    cases = [
        ("coordinate", {**HALFMAP, "breakpoints": [["0", huge]]}, ["rotation"]),
        ("period", period, ["density"]),
        ("tail_bound", {"lp": {**LP4["lp"], "tail_bound": huge}}, ["density"]),
        ("--start", HALFMAP, ["orbit", "--start", huge]),
        ("point literal", HALFMAP, ["orbit", "--start", f"x={huge}; k=(0)"]),
    ]
    for name, desc, args in cases:
        path = write(tmp_path, "huge.json", desc)
        res = run_python("-m", "soldyn", *args, "--input", path, timeout=10)
        assert res.returncode == 2 and res.stdout == "", (name, res.stderr)
        assert "Traceback" not in res.stderr and "digit limit" in res.stderr, (name, res.stderr)


def test_orbit_p_without_q_return_exits_2(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    res = runner.invoke(main, ["orbit", "--input", path, "--p", "5", "--iters", "3"])
    assert_usage_error(res)
    assert "--p" in res.stderr and "--q-return" in res.stderr


def test_orbit_q_return_without_p_exits_2(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    res = runner.invoke(main, ["orbit", "--input", path, "--q-return", "7", "--iters", "3"])
    assert_usage_error(res)
    assert "--p" in res.stderr and "--q-return" in res.stderr


def test_orbit_negative_iters_exits_2(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    res = runner.invoke(main, ["orbit", "--input", path, "--iters", "-1"])
    assert_usage_error(res)
    assert "--iters" in res.stderr and "budget" not in res.stderr


def test_q_return_zero_exits_2(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    assert_usage_error(runner.invoke(main, ["orbit", "--input", path, "--p", "0", "--q-return", "0"]))


def test_q_return_negative_exits_2(runner, tmp_path):
    path = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    assert_usage_error(runner.invoke(main, ["orbit", "--input", path, "--p", "0", "--q-return", "-1"]))


def test_orbit_literal_start_rows_match_header(runner, tmp_path):
    path = write(tmp_path, "rot.json", ROT35_HOMEO)
    for depth in ("8", "3"):
        res = runner.invoke(
            main,
            ["orbit", "--input", path, "--start", "x=1/4; k=(0, 1)", "--depth", depth,
             "--iters", "4", "--p", "3", "--q-return", "5"],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["iter", "x", "r1", "r2", "dist_to_target"]
        assert len(lines) == 5
        assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_density_negative_tail_bound_exits_2(runner, tmp_path):
    lp = {"lp": {**LP4["lp"], "tail_bound": "-1"}}
    path = write(tmp_path, "lp.json", lp)
    assert_usage_error(runner.invoke(main, ["density", "--input", path]))


DEPTH5_LP = {
    "lp": {
        "tower": [1, 2, 4, 12, 24],
        "summands": [
            {"period": "1", "breakpoints": [["0", "0"], ["1/4", "-3/32"], ["1/2", "1/16"]]},
            {"period": "2", "breakpoints": [["0", "1/64"], ["5/4", "-1/32"]]},
            {"period": "4", "breakpoints": [["1/2", "0"], ["3", "3/256"]]},
            {"period": "12", "breakpoints": [["0", "-1/512"], ["7", "1/512"]]},
            {"period": "24", "breakpoints": [["0", "0"], ["12", "1/2048"], ["13", "0"]]},
        ],
        "tail_bound": "1/4096",
    }
}


def test_density_ignores_samples(runner, tmp_path, monkeypatch):
    calls = {"eval": 0, "lp_truncate": 0}
    plain_eval = PeriodicPL.eval

    def counting_eval(self, x):
        calls["eval"] += 1
        return plain_eval(self, x)

    def no_truncation(*args):
        calls["lp_truncate"] += 1
        raise AssertionError("density must not build truncations")

    monkeypatch.setattr(PeriodicPL, "eval", counting_eval)
    monkeypatch.setattr(PeriodicPL, "__call__", counting_eval)
    monkeypatch.setattr(soldyn.induced, "lp_truncate", no_truncation)
    monkeypatch.setattr(soldyn.cli, "lp_truncate", no_truncation, raising=False)
    path = write(tmp_path, "lp5.json", DEPTH5_LP)
    outputs, evals = [], []
    for n in (1, 5000):
        calls["eval"] = 0
        res = runner.invoke(main, ["density", "--input", path, "--samples", str(n)])
        assert res.exit_code == 0, res.output
        outputs.append(res.output)
        evals.append(calls["eval"])
    assert calls["lp_truncate"] == 0
    assert outputs[0] == outputs[1]
    # the gaps are sums of the summands' integer rows: no summand is evaluated
    assert evals == [0, 0]


def _live_runner_streams() -> int:
    gc.collect()
    return sum(
        1 for o in gc.get_objects()
        if isinstance(o, io.TextIOWrapper) and type(o).__module__ == "click.testing"
    )


def test_in_process_invocations_leave_no_stdout_wrapper_alive(runner, tmp_path):
    # CliRunner installs a fresh sys.stdout per call; a stream cache keyed on
    # it must not outlive the call, whatever the exit path (help included)
    half = write(tmp_path, "half.json", HALFMAP)
    fp = write(tmp_path, "fp.json", FIXEDPOINT_HOMEO)
    lp = write(tmp_path, "lp.json", LP4)
    jobs = [
        (["rotation", "--input", half, "--iters", "10"], 0),
        (["orbit", "--input", fp, "--iters", "0"], 0),
        (["semiconj", "--input", fp, "--samples", "3"], 0),
        (["density", "--input", lp, "--samples", "4", "--format", "json"], 0),
        (["density", "--input", half], 2),
        (["--help"], 0),
        (["density", "--help"], 0),
        ([], 2),
    ]
    before = _live_runner_streams()
    for i in range(20 * len(jobs)):
        args, code = jobs[i % len(jobs)]
        res = runner.invoke(main, args)
        assert res.exit_code == code, res.output
    assert _live_runner_streams() <= before
