"""Command line contract: exit codes, JSON schema, cache behavior."""

from __future__ import annotations

import json
import re
from array import array

import pytest

from zetaladder.cli import main
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
        assert header[0][2:] in err and "Traceback" not in err


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


@pytest.mark.parametrize("terms", ["0", "5"])
def test_rs_terms_outside_correction_table_exit_2(capsys, cache, terms):
    code, out, err = _run(capsys, "ladder-build", "--tmax", "101",
                          "--rs-terms", terms, *cache)
    assert code == 2
    assert out == ""
    assert "rs_terms" in err and "Traceback" not in err


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
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
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
], ids=["negative-seed", "L-past-float-range", "delta-past-float-range"])
def test_inputs_outside_the_typed_domain_exit_2(capsys, argv, named):
    # exit 1 means "out of tolerance"; each of these is refused by the
    # library with a typed error before any chain is solved
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err and "Traceback" not in err


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
], ids=["one-depth", "reversed-depths", "depth-above-k-max", "reversed-l",
        "reversed-u", "l-below-floor", "u-too-wide", "no-workers",
        "negative-workers"])
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


# ---------------------------------------------------------------------------
# top-level
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify" in out and "ladder-build" in out
