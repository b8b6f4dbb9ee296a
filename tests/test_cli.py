"""Command line contract: exit codes, JSON schema, cache behavior."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder.cli import _FORMULAS, _build_parser, _report_passes, main
from zetaladder.hybrid import HybridReport
from zetaladder.ladder import _values_digest

# A tiny window keeps every invocation here under a second after the first
# table build.  Only ladder-build reads or writes a table file, so only its
# invocations get a per-test --cache-dir.


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def cache(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_echf1_passes_with_json_report(capsys):
    code, out, err = _run(
        capsys, "verify", "echf1", "--L", "150", "--U", "1.0",
        "--k1", "1", "--k2", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["tolerance"] == 1e-6
    rep = payload["report"]
    assert rep["formula_id"] == "ECHF1"
    assert rep["rel_residual"] <= 1e-6
    assert "PASS" in err


def test_verify_accepts_numeric_alias(capsys):
    code, out, _ = _run(
        capsys, "verify", "2.9", "--L", "150", "--U", "1.0",
        "--k1", "1", "--k2", "2",
    )
    assert code == 0
    assert json.loads(out)["report"]["formula_id"] == "ECHF1"


def test_verify_secondary1_full_flags(capsys):
    code, out, err = _run(
        capsys, "verify", "secondary1", "--delta3", "1/3", "--delta4", "1/5",
        "--L", "200", "--U", "1.0", "--k1", "1", "--k2", "2",
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["formula_id"] == "SECONDARY1_11"
    assert rep["params"]["delta3"] == "1/3"


def test_verify_fails_with_exit_1_on_unreachable_tolerance(capsys):
    code, out, err = _run(
        capsys, "verify", "echf1", "--L", "150", "--U", "1.0",
        "--k1", "1", "--k2", "2", "--tol", "1e-18",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "FAIL" in err


def test_verify_degenerate_deltas_exit_2(capsys):
    code, _, err = _run(
        capsys, "verify", "echf2", "--delta3", "1/3", "--delta4", "1/3",
        "--L", "150", "--U", "1.0", "--k3", "1", "--k4", "2",
    )
    assert code == 2
    assert err.strip()


def test_verify_unknown_formula_exit_2(capsys):
    code, _, err = _run(
        capsys, "verify", "nonsense", "--L", "150", "--U", "1.0",
    )
    assert code == 2


_REQUIRED_FLAGS = {
    "echf1": "k1 k2",
    "echf2": "delta3 delta4 k3 k4",
    "beta-elim": "delta3 delta4 k",
    "secondary1": "delta3 delta4 k1 k2",
    "mixed": "k",
    "secondary2": "delta3 delta4 k3 k4",
    "ternary": "delta3 delta4 k1 k2 k3 k4",
    "asymptotic": "delta3 delta4 k1 k2",
}


@pytest.mark.parametrize("name", list(_REQUIRED_FLAGS))
def test_verify_missing_required_depths_exit_2(capsys, name):
    # fails before any chain is solved, so it is cheap for every formula
    code, out, err = _run(
        capsys, "verify", name, "--L", "150", "--U", "1.0",
    )
    assert code == 2
    assert out == ""
    named = re.findall(r"--[\w-]+", err)
    assert named == ["--" + f for f in _REQUIRED_FLAGS[name].split()]


def test_verify_window_too_wide_exit_2(capsys):
    code, _, _ = _run(
        capsys, "verify", "echf1", "--L", "150", "--U", "1.6",
        "--k1", "1", "--k2", "2",
    )
    assert code == 2


def test_verify_bad_fraction_exit_2(capsys):
    code, _, _ = _run(
        capsys, "verify", "echf2", "--delta3", "one-third", "--delta4", "1/5",
        "--L", "150", "--U", "1.0", "--k3", "1", "--k4", "2",
    )
    assert code == 2


def test_verify_output_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "verify", "mixed", "--L", "150", "--U", "1.0", "--k", "2",
        "--output", str(out_path),
    )
    assert code == 0
    assert json.loads(out) == json.loads(out_path.read_text())


@pytest.mark.parametrize("anchor, dev, pred, ok", [
    (2e-6, 1e-3, 1e-3, False),
    (0.0, 5e-13, -5e-13, True),
    (0.0, 1e-3, 0.0, False),
    (0.0, 1e-3, 2e-3, True),
    (6.44e-11, -2.82e-11, 3.62e-11, True),
    (1e-11, -2.82e-11, 3.62e-11, False),
], ids=["anchor-over-tol", "both-below-1e-12", "zero-prediction", "within-factor-3",
        "both-within-the-anchor-residual", "opposite-signs-above-the-anchor-residual"])
def test_asymptotic_pass_rule(anchor, dev, pred, ok):
    # ASYMPTOTIC_17 gates on its anchor, then on the drift against its
    # prediction: both within max(1e-12, anchor residual) are noise and
    # pass, a zero prediction of a drift fails
    report = HybridReport(
        formula_id="ASYMPTOTIC_17", params={}, lhs=1.0, rhs=1.0,
        rel_residual=abs(dev), condition=1.0, points={},
        extras={"anchor_residual": anchor, "deviation": dev, "predicted_deviation": pred})
    assert _report_passes(report, 1e-6) is ok


def test_verify_asymptotic_passes_with_drift_within_its_anchor_residual(capsys):
    # deviation -2.82e-11 against a predicted 3.62e-11, opposite signs, both
    # below the anchor residual 6.44e-11: noise, not a failed prediction
    code, out, _ = _run(
        capsys, "verify", "asymptotic", "--L", "264", "--U", "0.48498512844384545",
        "--k1", "3", "--k2", "2", "--delta3", "1/3", "--delta4", "1/5",
    )
    extras = json.loads(out)["report"]["extras"]
    assert extras["deviation"] * extras["predicted_deviation"] < 0.0
    assert 1e-12 < abs(extras["deviation"]) < extras["anchor_residual"]
    assert code == 0


def test_verify_is_deterministic_up_to_timings(capsys):
    argv = ["verify", "ternary", "--delta3", "1/3", "--delta4", "1/5",
            "--L", "150", "--U", "1.0", "--k1", "1", "--k2", "2",
            "--k3", "1", "--k4", "2"]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1["report"].pop("timings")
    p2["report"].pop("timings")
    assert p1 == p2


# ---------------------------------------------------------------------------
# ladder-build
# ---------------------------------------------------------------------------


def test_ladder_build_creates_and_extends_cache(capsys, cache, tmp_path):
    f = str(tmp_path / "table.csv")
    code, out, _ = _run(capsys, "ladder-build", "--tmax", "300",
                        "--cache-file", f, *cache)
    assert code == 0
    first = json.loads(out)
    assert first["t_covered"] >= 300.0

    code, out, _ = _run(capsys, "ladder-build", "--tmax", "400",
                        "--cache-file", f, *cache)
    assert code == 0
    second = json.loads(out)
    assert second["t_covered"] >= 400.0
    assert second["knots"] > first["knots"]


def test_ladder_build_idempotent(capsys, cache, tmp_path):
    f = str(tmp_path / "table.csv")
    args = ["ladder-build", "--tmax", "300", "--cache-file", f, *cache]
    _run(capsys, *args)
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_ladder_build_rejects_foreign_cache(capsys, cache, tmp_path):
    f = str(tmp_path / "table.csv")
    _run(capsys, "ladder-build", "--tmax", "300", "--cache-file", f, *cache)
    code, _, err = _run(capsys, "ladder-build", "--tmax", "300",
                        "--cache-file", f, "--quad-tol", "1e-9", *cache)
    assert code == 2
    assert err.strip()


def test_ladder_build_refuses_v2_cache(capsys, cache, tmp_path):
    # tables from before the zl-table-v3 and zl-table-v5 bumps must be rebuilt
    f = tmp_path / "table.csv"
    assert _run(capsys, "ladder-build", "--tmax", "5", "--cache-file", str(f), *cache)[0] == 0
    lines = f.read_text().splitlines()
    for header in (["# zl-table-v2", "# config_hash=47d4c5aec864ed1b"],
                   ["# zl-table-v4", "# config_hash=f729cb08f9678cb8"]):
        f.write_text("\n".join(header + lines[2:]) + "\n")
        code, out, err = _run(capsys, "ladder-build", "--tmax", "5",
                              "--cache-file", str(f), *cache)
        assert code == 2
        assert out == ""
        assert header[0][2:] in err and str(f) in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda data: b"# zl-table-v4\n" + data.partition(b"\n")[2],
    lambda data: b"",
    lambda data: b"\xef\xbb\xbf" + data,
], ids=["foreign-format-line", "empty", "byte-order-mark"])
def test_ladder_build_bad_format_line_names_the_file(capsys, cache, tmp_path, edit):
    # the first line is not this build's format tag: exit 2, naming the file
    f = tmp_path / "table.csv"
    assert _run(capsys, "ladder-build", "--tmax", "5", "--cache-file", str(f), *cache)[0] == 0
    f.write_bytes(edit(f.read_bytes()))
    code, out, err = _run(capsys, "ladder-build", "--tmax", "5",
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert f"table {f}: unrecognized format line" in err and "Traceback" not in err


def test_ladder_build_at_the_rounding_floor_exit_3(capsys, cache):
    # 5e-13 per knot is below the noise of Z^2 there: the quadrature says
    # so at once rather than halving toward the width limit
    code, out, err = _run(capsys, "ladder-build", "--tmax", "2200",
                          "--quad-tol", "1e-12", *cache)
    assert code == 3
    assert out == ""
    assert "rounding floor" in err and "Traceback" not in err


def test_ladder_build_corrupt_cache_exit_2(capsys, cache, tmp_path):
    f = tmp_path / "table.csv"
    code, _, _ = _run(capsys, "ladder-build", "--tmax", "5",
                      "--cache-file", str(f), *cache)
    assert code == 0
    # truncate the last row after its comma
    head, _, _ = f.read_text().rstrip("\n").rpartition(",")
    f.write_text(head + ",\n")
    code, out, err = _run(capsys, "ladder-build", "--tmax", "6",
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "Traceback" not in err


def test_ladder_build_non_utf8_cache_exit_2(capsys, cache, tmp_path):
    # the format line reads right, the next does not decode
    f = tmp_path / "table.csv"
    f.write_bytes(b"# zl-table-v5\n\xff\xfe\n")
    code, out, err = _run(capsys, "ladder-build", "--tmax", "5",
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert str(f) in err and "UTF-8" in err and "Traceback" not in err


def test_ladder_build_monotone_edit_exit_2(capsys, cache, tmp_path):
    # raising the last knot keeps A increasing; the values checksum catches it
    f = tmp_path / "table.csv"
    assert _run(capsys, "ladder-build", "--tmax", "5", "--cache-file", str(f), *cache)[0] == 0
    head, _, last = f.read_text().rstrip("\n").rpartition(",")
    f.write_text(f"{head},{float(last) + 1e-9!r}\n")
    code, out, err = _run(capsys, "ladder-build", "--tmax", "6",
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert "checksum" in err and "Traceback" not in err


def test_ladder_build_respaced_cache_exit_2(capsys, cache, tmp_path):
    # a table whose spacing header and t column were rewritten to 1.0 still
    # passes its checksum; its spacing is not the configured 0.5
    f = tmp_path / "table.csv"
    assert _run(capsys, "ladder-build", "--tmax", "5", "--cache-file", str(f), *cache)[0] == 0
    lines = f.read_text().splitlines()
    head = lines.index("t,a") + 1
    lines = [("# spacing=1.0" if line.startswith("# spacing=") else line)
             for line in lines[:head]] + [
        f"{float(j)!r},{line.partition(',')[2]}" for j, line in enumerate(lines[head:])]
    f.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, "ladder-build", "--tmax", "6",
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert "spacing" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("ladder-build", "--tmax", "101"),
    ("verify", "echf1", "--L", "150", "--U", "1.0", "--k1", "1", "--k2", "2"),
    ("scan", "invariance", "--delta3", "1/3", "--delta4", "1/5"),
    ("scan", "gaps"),
    ("scan", "asymptotic", "--delta3", "1/3", "--delta4", "1/5"),
], ids=["ladder-build", "verify", "scan-invariance", "scan-gaps", "scan-asymptotic"])
def test_rs_terms_is_not_a_flag(capsys, cache, argv):
    # every correction term is always used: the depth is a model constant
    table = cache if argv[0] == "ladder-build" else []
    code, out, err = _run(capsys, *argv, *table, "--rs-terms", "3")
    assert code == 2
    assert out == "" and "unrecognized arguments: --rs-terms" in err


@pytest.mark.parametrize("flag", ["--quad-tol", "--root-tol"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_invalid_tolerance_exit_2(capsys, cache, flag, value):
    # --root-tol only reaches the solvers, so it is checked through verify
    argv = (["ladder-build", "--tmax", "5", *cache] if flag == "--quad-tol" else
            ["verify", "echf1", "--L", "150", "--U", "1.0", "--k1", "1", "--k2", "2"])
    code, out, err = _run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "echf1", "--L", "100", "--U", "0.5", "--k1", "0", "--k2", "0", "--tol"),
    ("scan", "invariance", "--delta3", "1/3", "--delta4", "1/5", "--scan-tol"),
    ("scan", "asymptotic", "--delta3", "1/3", "--delta4", "1/5", "--tol"),
], ids=["verify", "scan-invariance", "scan-asymptotic"])
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_invalid_gate_tolerance_exit_2(capsys, argv, value):
    # exit 1 means "out of tolerance"; a gate with no valid tolerance is a
    # usage error, refused before any work
    code, out, err = _run(capsys, *argv, value)
    assert code == 2
    assert out == ""
    assert argv[-1] in err and "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (("scan", "invariance", "--delta3", "1/3", "--delta4", "1/5", "--seed", "-1"), "seed"),
    (("verify", "echf1", "--L", "1" + "0" * 399, "--U", "1.0", "--k1", "1", "--k2", "2"),
     "L"),
    (("verify", "echf2", "--delta3", "1e400", "--delta4", "1/5", "--L", "150",
      "--U", "1.0", "--k3", "1", "--k4", "2"), "d3"),
    # pi L + U rounds back to pi L: seg_0 has no width
    (("verify", "echf1", "--L", "150", "--U", "1e-300", "--k1", "0", "--k2", "0"),
     "no width"),
    # a root_tol past a knot interval: both ends of seg_1 step to one midpoint
    (("verify", "echf1", "--L", "150", "--U", "1.0", "--k1", "1", "--k2", "2",
      "--root-tol", "10"), "no width"),
    # every sample's base window is too narrow: the scan raises the first
    # sample's usage error, on one worker or two
    *((("scan", "invariance", "--delta3", "1/3", "--delta4", "1/5", "--samples", "2",
        "--l-min", "100", "--l-max", "100", "--u-min", "1e-300", "--u-max", "1e-300",
        "--workers", workers), "all 2 scan samples failed: DomainTooSmall")
      for workers in ("1", "2")),
], ids=["negative-seed", "L-past-float-range", "delta-past-float-range",
        "zero-width-base", "zero-width-tower-segment", "scan-every-sample-1-worker",
        "scan-every-sample-2-workers"])
def test_inputs_outside_the_typed_domain_exit_2(capsys, argv, named):
    # exit 1 means "out of tolerance"; each of these is refused by the
    # library with a typed error before any chain is solved
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err and "Traceback" not in err


def test_a_combiner_overflow_exits_3(capsys):
    # a and b grow like 1/(d3 - d4): the as-printed side passes the float
    # range, a numerical failure rather than a breach of --tol
    code, out, err = _run(capsys, "verify", "ternary", "--L", "150", "--U", "1.0",
                          "--k1", "1", "--k2", "2", "--k3", "1", "--k4", "2",
                          "--delta3", "3/10", "--delta4", "300000001/1000000000")
    assert code == 3
    assert out == ""
    assert "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    # a walk lands alpha_0 a few ulps below pi L, where v^(1/3) is complex
    (("verify", "echf2", "--L", "400", "--U", "1e-10", "--k3", "0", "--k4", "3",
      "--delta3", "7", "--delta4", "1/3"), "offset"),
    # a power weight's mass U^31 / 31 underflows to 0 at U = 1e-12
    (("verify", "echf2", "--L", "200", "--U", "1e-12", "--k3", "1", "--k4", "2",
      "--delta3", "30", "--delta4", "1/3"), "chain level"),
], ids=["echf2-negative-offset", "echf2-power-mass-underflow"])
def test_windows_too_narrow_for_their_weights_exit_2(capsys, argv, named):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, code, named", [
    # U^100001 passes the float range: the chain's level is not finite
    (("verify", "echf2", "--L", "150", "--U", "1.5", "--k3", "1", "--k4", "2",
      "--delta3", "100000", "--delta4", "1/3"), 2, "chain level inf"),
    # at root_tol 1e3 a walk lands 3.5 below pi L, where v^1000 passes the
    # float range: that sample fails as a non-finite crossing sample
    (("scan", "invariance", "--samples", "2", "--seed", "4", "--u-min", "1.5",
      "--u-max", "1.5", "--l-min", "100", "--l-max", "107", "--k-min", "0",
      "--k-max-scan", "3", "--delta3", "1/1000", "--delta4", "1000",
      "--root-tol", "1e3"), 1, "= inf is not finite"),
], ids=["verify-power-mass", "scan-power-weight"])
def test_a_power_weight_past_the_float_range_is_typed(capsys, argv, code, named):
    # float ** raises OverflowError there; the weight reads inf instead
    got, out, err = _run(capsys, *argv)
    assert got == code
    assert named in (out if code == 1 else err) and "Traceback" not in err


def test_a_sin2_window_too_narrow_to_cross_exits_3(capsys):
    # sin^2's mass at U = 1e-12 is its series' 3.3e-37, where 0.5 U -
    # 0.25 sin 2U cancelled to 0: the chain has a level, but its crossing
    # scan finds no sign change on a seg_1 a few ulps wide
    code, out, err = _run(capsys, "verify", "mixed", "--L", "200", "--U", "1e-12",
                          "--k", "1")
    assert code == 3
    assert out == ""
    assert "no crossing" in err and "Traceback" not in err


# verify's exit-code contract over its whole input space: any formula, L at
# the floor (100) or just below, U from the least subnormal to just below
# pi/2, any depth up to k_max, distinct delta pairs from 1/1000 to 1000 and
# tolerances at both extremes.  Every call exits 0..3 without raising, and
# exits 0 or 1 only with a report.

_U_TOP = math.nextafter(math.pi / 2.0, 0.0)
_WIDTHS = st.one_of(
    st.floats(min_value=0.05, max_value=_U_TOP),
    st.integers(-323, 0).map(lambda e: min(10.0 ** e, _U_TOP)),
    st.floats(min_value=5e-324, max_value=_U_TOP),
    st.sampled_from([5e-324, 1e-12, _U_TOP]),
)
_DELTAS = st.one_of(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    st.sampled_from([Fraction(1, 1000), Fraction(1000), Fraction(999, 1000),
                     Fraction(7, 3)]),
)
_TOLS = st.one_of(st.none(), st.sampled_from(
    ["5e-324", "1e-300", "1e-16", "1e-13", "1e-3", "1e3", "1e300"]))


def _pair_flags(draw) -> list[str]:
    d3, d4 = draw(st.lists(_DELTAS, min_size=2, max_size=2, unique=True))
    return ["--delta3", str(d3), "--delta4", str(d4)]


def _tol_flags(draw) -> list[str]:
    argv = []
    for flag in ("--root-tol", "--quad-tol"):
        tol = draw(_TOLS)
        if tol is not None:
            argv += [flag, tol]
    return argv


def _verify_argv(draw, formula: str) -> list[str]:
    _, depth_flags, paired = next(v for names, v in _FORMULAS.items()
                                  if names[0] == formula)
    argv = ["verify", formula, "--L", str(draw(st.integers(99, 108))),
            "--U", repr(draw(_WIDTHS))]
    for flag in depth_flags:
        argv += [f"--{flag}", str(draw(st.integers(0, 4)))]
    if paired:
        argv += _pair_flags(draw)
    return argv + _tol_flags(draw)


def _check_exit_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code not in (0, 1):
        assert out.getvalue() == "", argv
    elif argv[:2] == ["scan", "gaps"]:
        # one row per (L, r): argv is [scan, gaps, --L, Ls, --U, U, --r=rs, ...]
        n_l, n_r = len(argv[3].split(",")), len(argv[6].split(","))
        lines = out.getvalue().splitlines()
        assert lines[0] == "L,U,r,rho,predicted,ratio", argv
        assert len(lines) == 1 + n_l * n_r, argv
    else:
        payload = json.loads(out.getvalue())
        assert payload["pass"] is (code == 0), argv
        assert argv[0] == "scan" or "formula_id" in payload["report"], argv
    assert "Traceback" not in err.getvalue(), argv


_VERIFY_NAMES = [names[0] for names in _FORMULAS]


@pytest.mark.parametrize("formula", _VERIFY_NAMES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_exit_codes_hold_over_the_input_space(formula, data):
    _check_exit_contract(_verify_argv(data.draw, formula))


@pytest.mark.fuzz
@pytest.mark.parametrize("formula", _VERIFY_NAMES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_exit_codes_hold_over_the_input_space_long(formula, data):
    # opt in with `pytest -m fuzz`: 800 calls, about half a minute
    _check_exit_contract(_verify_argv(data.draw, formula))


def test_ladder_build_nan_height_exit_2(capsys, cache):
    code, out, err = _run(capsys, "ladder-build", "--tmax", "nan", *cache)
    assert code == 2
    assert out == ""
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "0", "-0.0", "inf", "-inf"])
def test_ladder_build_height_not_above_zero_exit_2(capsys, cache, tmp_path, value):
    # a one-knot table is no table: the height is refused before any file
    f = tmp_path / "table.csv"
    code, out, err = _run(capsys, "ladder-build", "--tmax", value,
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert "--tmax" in err and "Traceback" not in err
    assert not f.exists()


def test_ladder_build_offset_cache_exit_2(capsys, cache, tmp_path):
    # every value raised by 3.0 and the checksum rewritten to match: A still
    # increases, but its first row is no longer A(0) = 0
    f = tmp_path / "table.csv"
    assert _run(capsys, "ladder-build", "--tmax", "5", "--cache-file", str(f), *cache)[0] == 0
    lines = f.read_text().splitlines()
    head = lines.index("t,a") + 1
    rows = [line.partition(",") for line in lines[head:]]
    values = array("d", [float(a) + 3.0 for _, _, a in rows])
    lines = [f"# values_sha256={_values_digest(values)}"
             if line.startswith("# values_sha256=") else line for line in lines[:head]]
    f.write_text("\n".join(lines + [f"{t},{v!r}" for (t, _, _), v in zip(rows, values)]) + "\n")
    code, out, err = _run(capsys, "ladder-build", "--tmax", "6",
                          "--cache-file", str(f), *cache)
    assert code == 2
    assert out == ""
    assert "A(0)" in err and "Traceback" not in err


def test_ladder_build_unwritable_output_exit_2(capsys, cache, tmp_path):
    missing = tmp_path / "no-such-dir" / "o.json"
    code, _, err = _run(capsys, "ladder-build", "--tmax", "5",
                        "--output", str(missing), *cache)
    assert code == 2
    assert str(missing) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("ladder-build", "--tmax", "5", "--output"),
    ("scan", "gaps", "--L", "150", "--U", "1.0", "--r", "0", "--csv"),
], ids=["ladder-build", "scan-gaps"])
def test_unwritable_output_prints_nothing(capsys, cache, tmp_path, argv):
    # the output file is opened before anything reaches stdout
    missing = tmp_path / "no-such-dir" / "out"
    table = cache if argv[0] == "ladder-build" else []
    code, out, _ = _run(capsys, *argv, str(missing), *table)
    assert code == 2
    assert out == ""


def test_verify_mass_below_normalizer_floor_exit_2(capsys):
    # k = 0 chains make no phi1 solve: on [0, 0.2] echf1 is the mean-value
    # identity of the base window and passes
    argv = ["verify", "echf1", "--L", "0", "--U", "0.2", "--k2", "0",
            "--l-floor", "0"]
    code, _, _ = _run(capsys, *argv, "--k1", "0")
    assert code == 0
    # one level up, the reverse step starts below the normalizer floor t_min
    code, out, err = _run(capsys, *argv, "--k1", "1")
    assert code == 2
    assert out == ""
    assert re.search(r"reverse_step requested .* < t_min", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--root-tol", "--l-floor", "--k-max"])
def test_ladder_build_refuses_flags_it_does_not_read(capsys, cache, flag):
    # a table build solves no chain and builds no tower
    code, out, err = _run(capsys, "ladder-build", "--tmax", "5", *cache, flag, "1")
    assert code == 2
    assert out == "" and f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", [
    ("verify", "echf1", "--L", "150", "--U", "1.0", "--k1", "1", "--k2", "2"),
    ("scan", "invariance", "--delta3", "1/3", "--delta4", "1/5"),
    ("scan", "gaps"),
    ("scan", "asymptotic", "--delta3", "1/3", "--delta4", "1/5"),
], ids=["verify", "scan-invariance", "scan-gaps", "scan-asymptotic"])
def test_only_ladder_build_takes_cache_dir(capsys, cache, argv):
    # they never read or write a table file; argparse refuses the flag
    code, out, err = _run(capsys, *argv, *cache)
    assert code == 2
    assert out == "" and "unrecognized arguments: --cache-dir" in err


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_gaps_emits_csv_and_passes(capsys):
    code, out, err = _run(
        capsys, "scan", "gaps", "--L", "150,300", "--U", "1.0", "--r", "0",
            )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,U,r,rho,predicted,ratio"
    assert len(lines) == 3
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert all(0.5 <= r <= 1.5 for r in ratios)


def test_scan_gaps_csv_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "gaps.csv"
    code, out, _ = _run(capsys, "scan", "gaps", "--L", "150", "--U", "1.0", "--r", "0",
                        "--csv", str(path))
    assert code == 0
    assert path.read_text() == out


def test_scan_invariance_small_sample(capsys):
    code, out, err = _run(
        capsys, "scan", "invariance", "--delta3", "1/3", "--delta4", "1/5",
        "--samples", "3", "--seed", "3", "--u-min", "0.5", "--u-max", "1.0",
        "--l-min", "100", "--l-max", "130", "--k-min", "1",
        "--k-max-scan", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["scan"]["samples"]) == 3
    assert payload["scan"]["max_rel_dev"] <= 1e-5


@pytest.mark.parametrize("ranges", [
    ("--k-min", "2", "--k-max-scan", "2"),
    ("--k-min", "3", "--k-max-scan", "1"),
    ("--k-min", "4", "--k-max-scan", "5"),
    ("--l-min", "300", "--l-max", "200"),
    ("--u-min", "1.0", "--u-max", "0.5"),
    ("--l-min", "50"),
    ("--u-max", "1.6"),
    ("--workers", "0"),
    ("--workers", "-4"),
    ("--l-min", "10000000000000000000", "--l-max", "10000000000000000001"),
], ids=["one-depth", "reversed-depths", "depth-above-k-max", "reversed-l",
        "reversed-u", "l-below-floor", "u-too-wide", "no-workers",
        "negative-workers", "l-past-int64"])
def test_scan_invariance_bad_ranges_exit_2(capsys, ranges):
    # checked before any sample is drawn or solved
    code, out, err = _run(
        capsys, "scan", "invariance", "--delta3", "1/3", "--delta4", "1/5",
        "--samples", "2", *ranges,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("scan", "gaps", "--L", ""),
    ("scan", "gaps", "--L", ","),
    ("scan", "gaps", "--r", ""),
    ("scan", "asymptotic", "--delta3", "1/3", "--delta4", "1/5", "--L", ""),
], ids=["gaps-L-empty", "gaps-L-comma", "gaps-r-empty", "asymptotic-L-empty"])
def test_empty_comma_list_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "empty comma list" in err


def test_non_integer_comma_list_exit_2(capsys):
    code, out, err = _run(capsys, "scan", "gaps", "--L", "150,x")
    assert code == 2
    assert out == "" and "not a comma list of ints" in err and "Traceback" not in err


def test_scan_asymptotic_reports_heights(capsys):
    code, out, _ = _run(
        capsys, "scan", "asymptotic", "--delta3", "1/3", "--delta4", "1/5",
        "--L", "150,200", "--U", "1.0", "--k1", "1", "--k2", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["rows"]) == 2
    assert {row["L"] for row in payload["rows"]} == {150, 200}


# the scans' exit-code contract, drawn as verify's is: comma lists of L at
# the floor or just below, widths and delta pairs from the same strategies,
# depths up to 4 and, for gaps, gap indices one below the first; invariance
# draws ordered ranges (ends may meet) and 2 to 4 samples on one worker.  Every
# call exits 0..3 without raising, and exits 0 or 1 only with output.

def _scan_argv(draw, kind: str) -> list[str]:
    def int_list(lo: int, hi: int) -> str:
        return ",".join(map(str, draw(st.lists(st.integers(lo, hi), min_size=1,
                                               max_size=3))))

    depth = st.integers(0, 4)
    if kind == "gaps":
        # "--r=-1": a lone "-1,0" would read as an option
        argv = ["scan", "gaps", "--L", int_list(99, 108), "--U", repr(draw(_WIDTHS)),
                f"--r={int_list(-1, 3)}"]
    elif kind == "asymptotic":
        argv = ["scan", "asymptotic", "--L", int_list(99, 108),
                "--U", repr(draw(_WIDTHS)), "--k1", str(draw(depth)),
                "--k2", str(draw(depth)), *_pair_flags(draw)]
    else:
        def ordered(values) -> list:
            return sorted(draw(st.lists(values, min_size=2, max_size=2)))

        (u_lo, u_hi), (l_lo, l_hi), (k_lo, k_hi) = (
            ordered(_WIDTHS), ordered(st.integers(99, 108)), ordered(depth))
        argv = ["scan", "invariance", "--samples", str(draw(st.integers(2, 4))),
                "--seed", str(draw(st.integers(0, 2**32 - 1))), "--workers", "1",
                "--u-min", repr(u_lo), "--u-max", repr(u_hi), "--l-min", str(l_lo),
                "--l-max", str(l_hi), "--k-min", str(k_lo), "--k-max-scan", str(k_hi),
                *_pair_flags(draw)]
    return argv + _tol_flags(draw)


_SCAN_KINDS = ["gaps", "asymptotic", "invariance"]


@pytest.mark.parametrize("kind", _SCAN_KINDS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_scan_exit_codes_hold_over_the_input_space(kind, data):
    _check_exit_contract(_scan_argv(data.draw, kind))


@pytest.mark.fuzz
@pytest.mark.parametrize("kind", _SCAN_KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_scan_exit_codes_hold_over_the_input_space_long(kind, data):
    # opt in with `pytest -m fuzz`: 450 calls
    _check_exit_contract(_scan_argv(data.draw, kind))


# ---------------------------------------------------------------------------
# top-level
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify" in out and "ladder-build" in out


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_the_flag_surface_is_pinned():
    # each subcommand's option strings; a new flag needs an edit here
    top = _subcommands(_build_parser())
    parsers = {"ladder-build": top["ladder-build"], "verify": top["verify"],
               **{f"scan {k}": p for k, p in _subcommands(top["scan"]).items()}}
    solve = ["--k-max", "--l-floor", "--quad-tol", "--root-tol"]
    help_ = ["--help", "-h"]
    surface = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in parsers.items()}
    assert surface == {
        "ladder-build": sorted(["--cache-dir", "--cache-file", "--output", "--quad-tol",
                                "--tmax", *help_]),
        "verify": sorted(["--L", "--U", "--delta3", "--delta4", "--k", "--k1", "--k2",
                          "--k3", "--k4", "--output", "--tol", *solve, *help_]),
        "scan invariance": sorted(["--delta3", "--delta4", "--k-max-scan", "--k-min",
                                   "--l-max", "--l-min", "--output", "--samples",
                                   "--scan-tol", "--seed", "--u-max", "--u-min",
                                   "--workers", *solve, *help_]),
        "scan gaps": sorted(["--L", "--U", "--csv", "--r", *solve, *help_]),
        "scan asymptotic": sorted(["--L", "--U", "--delta3", "--delta4", "--k1", "--k2",
                                   "--output", "--tol", *solve, *help_]),
    }


# ---------------------------------------------------------------------------
# pinned output of every subcommand
# ---------------------------------------------------------------------------

# one call per path: (argv, exit code, sha256 prefix of stdout with the
# report's timings emptied and the temporary directory named {tmp}, last
# stderr line); a refactor of the front end must keep all three
_PINNED_CALLS = {
    "verify-pass": (
        "verify echf1 --L 150 --U 1.0 --k1 1 --k2 2", 0, "2ac428605015941f",
        "ECHF1: PASS (rel_residual=3.906e-11, tol=1e-06)"),
    "verify-fail": (
        "verify echf1 --L 150 --U 1.0 --k1 1 --k2 2 --tol 1e-18", 1, "8f1e335f6fd4e444",
        "ECHF1: FAIL (rel_residual=3.906e-11, tol=1e-18)"),
    "verify-usage": (
        "verify echf2 --delta3 1/3 --delta4 1/3 --L 150 --U 1.0 --k3 1 --k4 2", 2,
        "e3b0c44298fc1c14",
        "usage error: d3 = d4 = 1/3 makes every combined identity trivial"),
    "scan-invariance": (
        "scan invariance --delta3 1/3 --delta4 1/5 --samples 3 --seed 3 --u-min 0.5 "
        "--u-max 1.0 --l-min 100 --l-max 130 --k-max-scan 2", 0, "42b0253c415b5756",
        "invariance: PASS (max_rel_dev=5.007e-11, tol=1e-05, 3 ok / 0 failed)"),
    "scan-gaps": (
        "scan gaps --L 150,300 --U 1.0 --r 0,1 --csv {tmp}/gaps.csv", 0,
        "df3016ce9e5cc515", "gaps: PASS (worst |log ratio| = 0.083)"),
    "scan-asymptotic": (
        "scan asymptotic --delta3 1/3 --delta4 1/5 --L 150,200 --U 1.0", 0,
        "4e0ba13044e8dab9", "asymptotic: PASS"),
    "ladder-build": (
        "ladder-build --tmax 300 --cache-dir {tmp}/cache", 0, "9ec80602347a64a9", ""),
}


@pytest.mark.parametrize("name", list(_PINNED_CALLS))
def test_each_subcommand_output_is_pinned(capsys, tmp_path, name):
    argv, code, digest, summary = _PINNED_CALLS[name]
    got, out, err = _run(capsys, *argv.replace("{tmp}", str(tmp_path)).split())
    text = re.sub(r'"timings": \{[^}]*\}', '"timings": {}', out)
    text = text.replace(str(tmp_path), "{tmp}")
    lines = err.strip().splitlines() or [""]
    assert (got, hashlib.sha256(text.encode()).hexdigest()[:16], lines[-1]) == (
        code, digest, summary)
