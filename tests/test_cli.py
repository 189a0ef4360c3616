from __future__ import annotations

import argparse
import errno
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cclt
from cclt import permanents, quadrature
from cclt import (
    GammaProfile,
    MatrixParseError,
    evaluate_cf,
    load_complex_matrix,
    load_score_matrix,
)
from cclt.cli import _build_parser, main
from cclt.permanents import PERM_CAP
from cclt.permtables import ENUM_CAP
from conftest import child_env

TWO_BY_TWO_CSV = "1,-1\n-1,1\n"


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fix2.csv"
    path.write_text(TWO_BY_TWO_CSV)
    return str(path)


UNREADABLE = ["missing", "directory", "not-utf8"]


def unreadable_file(tmp_path, case):
    """A path that cannot be read as text: absent, a directory, or bytes that are not UTF-8."""
    path = tmp_path / case
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe1,-1\n-1,1\n")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixIo:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,2\n-3,4e-1\n")
        m = load_score_matrix(path)
        assert np.array_equal(m.a, [[1.5, 2.0], [-3.0, 0.4]])

    def test_json_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"a": [[1, 2], [3, 4]]}))
        m = load_score_matrix(path)
        assert m.n == 2

    def test_format_override_beats_extension(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(TWO_BY_TWO_CSV)
        assert load_score_matrix(path, fmt="csv").n == 2

    def test_bad_token_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(MatrixParseError) as err:
            load_score_matrix(path)
        assert err.value.row == 2
        assert err.value.col == 2
        assert "row 2" in str(err.value)

    def test_ragged_rows_report_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MatrixParseError) as err:
            load_score_matrix(path)
        assert err.value.row == 2

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(MatrixParseError):
            load_score_matrix(path)

    def test_complex_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"re": [[0, 1], [1, 0]], "im": [[1, 0], [0, 1]]}))
        y = load_complex_matrix(path)
        assert y.y[0, 0] == 1j
        assert y.y[0, 1] == 1.0

    def test_complex_shape_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"re": [[0, 1], [1, 0]], "im": [[1, 0]]}))
        with pytest.raises(MatrixParseError):
            load_complex_matrix(path)

    def test_blank_csv_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1,2\n  \n3,4\n\n")
        assert np.array_equal(load_score_matrix(path).a, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n \n")
        with pytest.raises(MatrixParseError, match="no rows found"):
            load_score_matrix(path)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"b": [[1, 2], [3, 4]]}, "expected a JSON object with an 'a' field"),
            ([[1, 2], [3, 4]], "expected a JSON object with an 'a' field"),
            ({"a": []}, "field 'a' must be a nonempty list of rows"),
            ({"a": "1,2"}, "field 'a' must be a nonempty list of rows"),
            ({"a": [[1, 2], 3]}, "'a' row 2 is not a list"),
            ({"a": [[1, "x"], [3, 4]]}, "'a' row 1, column 2: not a number: 'x'"),
            ({"a": [[1, 2], [True, 4]]}, "'a' row 2, column 1: not a number: True"),
        ],
    )
    def test_malformed_json_grid(self, tmp_path, obj, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(MatrixParseError) as err:
            load_score_matrix(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("load", [load_score_matrix, load_complex_matrix])
    def test_invalid_json(self, tmp_path, load):
        path = tmp_path / "m.json"
        path.write_text('{"a": [[1, 2], [3, 4]')
        with pytest.raises(MatrixParseError, match="invalid JSON"):
            load(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(TWO_BY_TWO_CSV)
        with pytest.raises(MatrixParseError, match="unknown matrix format 'xml'"):
            load_score_matrix(path, fmt="xml")

    def test_complex_grid_rejected_by_matrix(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(MatrixParseError, match="n >= 2"):
            load_complex_matrix(path)

    @pytest.mark.parametrize("case", UNREADABLE)
    @pytest.mark.parametrize("load", [load_score_matrix, load_complex_matrix])
    def test_unreadable_file(self, tmp_path, case, load):
        path = unreadable_file(tmp_path, case)
        with pytest.raises(MatrixParseError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ")


class TestBoundCommand:
    def test_reference_output(self, capsys, fixture_csv):
        code, out, _ = run_cli(capsys, "bound", "--input", fixture_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["bound"] == pytest.approx(63.36)
        assert payload["delta"]["delta"] == pytest.approx(0.341345, abs=1e-6)
        assert payload["delta"]["method"] == "exact"

    def test_monte_carlo_fallback_above_cap(self, capsys, tmp_path, fixture_csv):
        rng = np.random.default_rng(0)
        path = tmp_path / "m5.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rng.standard_normal((5, 5))))
        code, out, _ = run_cli(
            capsys, "bound", "--input", str(path), "--enum-cap", "4", "--mc-samples", "20000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"]["method"] == "monte-carlo"
        assert payload["delta"]["std_error"] == pytest.approx(0.5 / math.sqrt(20000))

    def test_oversized_monte_carlo_sample_is_refused(self, capsys, tmp_path):
        path = tmp_path / "m12.csv"
        rows = np.random.default_rng(12).standard_normal((12, 12))
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        code, out, err = run_cli(capsys, "bound", "--input", str(path), "--mc-samples", str(10**12))
        assert (code, out) == (2, "")
        assert err == f"error: {10**12} samples need {8 * 10**12} bytes, over the {2**31}-byte budget\n"

    def test_oversized_monte_carlo_sample_is_refused_before_the_profile(self, capsys, monkeypatch, tmp_path):
        built = []
        init = GammaProfile.__init__
        monkeypatch.setattr(GammaProfile, "__init__", lambda self, matrix: built.append(matrix) or init(self, matrix))
        path = tmp_path / "m12.csv"
        rows = np.random.default_rng(12).standard_normal((12, 12))
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        code, _, err = run_cli(capsys, "bound", "--input", str(path), "--mc-samples", str(10**12))
        assert code == 2
        assert "over the 2147483648-byte budget" in err
        assert built == []

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_out_of_range_exits_2(self, capsys, tmp_path, seed):
        path = tmp_path / "m5.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in np.eye(5) + np.arange(5)))
        code, out, err = run_cli(
            capsys, "bound", "--input", str(path), "--enum-cap", "2", "--mc-samples", "10000", f"--seed={seed}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed must be in [0, 2^64)")

    def test_parse_error_names_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,4\n")
        code, _, err = run_cli(capsys, "bound", "--input", str(path))
        assert code == 2
        assert "row 2" in err

    def test_degenerate_matrix_error(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("1,1\n1,1\n")
        code, _, err = run_cli(capsys, "bound", "--input", str(path))
        assert code == 2
        assert "sigma2" in err

    @pytest.mark.parametrize(
        "extra, method",
        [([], "exact"), (["--enum-cap", "4", "--mc-samples", "20000"], "monte-carlo")],
    )
    def test_one_profile_per_run(self, capsys, monkeypatch, tmp_path, extra, method):
        rng = np.random.default_rng(0)
        path = tmp_path / "m5.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rng.standard_normal((5, 5))))
        built = []
        init = GammaProfile.__init__

        def counting_init(self, matrix):
            built.append(matrix)
            init(self, matrix)

        monkeypatch.setattr(GammaProfile, "__init__", counting_init)
        code, out, _ = run_cli(capsys, "bound", "--input", str(path), *extra)
        assert code == 0
        assert json.loads(out)["delta"]["method"] == method
        assert len(built) == 1

    def test_large_matrix_peak_memory(self, tmp_path):
        # n = 120 needs about 13 GB of n^4 tables on the literal route; the
        # row-pair route and chunked Monte Carlo keep the whole run small.
        path = tmp_path / "m120.csv"
        entries = np.random.default_rng(3).standard_normal((120, 120))
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in entries))
        report = tmp_path / "report.json"
        # The child reports its own high-water RSS (VmHWM, of the address space
        # exec made).  ru_maxrss would also carry the pytest process's peak,
        # which a vfork-and-exec child inherits.
        child = (
            "import sys\n"
            "from cclt.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
            "sys.exit(code)\n"
        )
        argv = ["bound", "--input", str(path), "--mc-samples", "10000", "--output", str(report)]
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=child_env(), timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        peak_bytes = int(proc.stdout.split()[-1]) * 1024  # VmHWM is in kB
        assert peak_bytes < 300e6
        payload = json.loads(report.read_text())
        assert payload["n"] == 120
        assert payload["delta"]["method"] == "monte-carlo"

    def test_byte_identical_reruns(self, capsys, fixture_csv):
        _, first, _ = run_cli(capsys, "bound", "--input", fixture_csv, "--seed", "7")
        _, second, _ = run_cli(capsys, "bound", "--input", fixture_csv, "--seed", "7")
        assert first == second

    def test_output_file(self, capsys, tmp_path, fixture_csv):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "bound", "--input", fixture_csv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["bound"] == pytest.approx(63.36)

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_unreadable_input_exits_2(self, capsys, tmp_path, case):
        path = unreadable_file(tmp_path, case)
        code, out, err = run_cli(capsys, "bound", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    def test_unwritable_output_exits_2(self, capsys, tmp_path, fixture_csv):
        target = tmp_path / "no" / "such" / "out.json"
        code, out, err = run_cli(capsys, "bound", "--input", fixture_csv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --output {target}: ")

    @pytest.mark.parametrize("command", ["bound", "exact"])
    @pytest.mark.parametrize("folder", ["missing", "read-only"])
    def test_output_checked_before_enumeration(self, capsys, monkeypatch, tmp_path, command, folder):
        # The message a failed write gives, before the 10! enumeration starts.
        path = tmp_path / "m10.csv"
        np.savetxt(path, np.random.default_rng(0).standard_normal((10, 10)), delimiter=",")
        if folder == "missing":
            target, reason = tmp_path / "no" / "such" / "out.json", "No such file or directory"
        else:
            target, reason = tmp_path / "out.json", "Permission denied"
            monkeypatch.setattr(os, "access", lambda where, mode: where != str(tmp_path))
        enumerated = []

        def spy(m, enum_cap=10):
            enumerated.append(m)

        monkeypatch.setattr(cclt.cli, "enumerate_distribution", spy)
        monkeypatch.setattr(cclt.constants, "enumerate_distribution", spy)
        code, out, err = run_cli(capsys, command, "--input", str(path), "--output", str(target))
        assert (code, out, err) == (2, "", f"error: --output {target}: cannot write: {reason}\n")
        assert enumerated == []

    @pytest.mark.parametrize("command", ["bound", "exact", "verify"])
    def test_output_directory_refused_before_work(self, capsys, monkeypatch, tmp_path, command):
        from cclt import verify

        path = tmp_path / "m10.csv"
        np.savetxt(path, np.random.default_rng(0).standard_normal((10, 10)), delimiter=",")
        ran = []

        def spy(*args, **kwargs):
            ran.append(args)

        monkeypatch.setattr(cclt.cli, "enumerate_distribution", spy)
        monkeypatch.setattr(cclt.constants, "enumerate_distribution", spy)
        monkeypatch.setattr(verify, "run_suite", spy)
        argv = ["verify", "all"] if command == "verify" else [command, "--input", str(path)]
        code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: --output {tmp_path}: cannot write: Is a directory\n")
        assert ran == []

    def test_failed_write_exits_2(self, capsys, monkeypatch, tmp_path, fixture_csv):
        target = tmp_path / "out.json"

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cclt.cli, "open", full_disk, raising=False)
        code, out, err = run_cli(capsys, "exact", "--input", fixture_csv, "--output", str(target))
        assert (code, out, err) == (2, "", f"error: --output {target}: cannot write: No space left on device\n")
        assert not target.exists()


class TestExactCommand:
    def test_report(self, capsys, fixture_csv):
        code, out, _ = run_cli(capsys, "exact", "--input", fixture_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(0.3413447460685429)
        assert payload["atoms_count"] == 2
        assert payload["n"] == 2

    def test_cap_error_mentions_monte_carlo(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "m6.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rng.standard_normal((6, 6))))
        code, _, err = run_cli(capsys, "exact", "--input", str(path), "--enum-cap", "5")
        assert code == 2
        assert "monte_carlo" in err


class TestCharfnCommand:
    def test_grid_report(self, capsys, fixture_csv):
        code, out, _ = run_cli(capsys, "charfn", "--input", fixture_csv, "--t-grid=-2:2:9")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 9
        for point in payload["points"]:
            t = point["t"]
            phi = complex(point["phi"]["re"], point["phi"]["im"])
            assert phi == pytest.approx(math.cos(2 * t), abs=1e-12)
            assert abs(phi) <= point["modulus_bound"] + 1e-12
            assert point["diff_bound_closed_simplified"] is None

    def test_points_match_cf_evaluation(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "m6.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rng.standard_normal((6, 6))))
        code, out, _ = run_cli(capsys, "charfn", "--input", str(path), "--t-grid=-1.5:1.5:4")
        assert code == 0
        m = load_score_matrix(path)
        for point in json.loads(out)["points"]:
            expected = evaluate_cf(m, point["t"]).as_dict()
            assert point.keys() == expected.keys()
            for key in ("phi", "gauss"):
                assert point[key].keys() == {"re", "im"}
                got = complex(point[key]["re"], point[key]["im"])
                assert got == pytest.approx(complex(expected[key]["re"], expected[key]["im"]), abs=1e-14)
            assert point["t"] == expected["t"]
            assert point["diff_bound_integral"] == expected["diff_bound_integral"]
            for key in ("modulus_bound", "diff_bound_closed", "diff_bound_closed_simplified"):
                assert point[key] == pytest.approx(expected[key], rel=1e-12)

    def test_points_equal_single_t_evaluations(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "m7.csv"
        path.write_text("\n".join(",".join(repr(v) for v in row) for row in rng.standard_normal((7, 7)).tolist()))
        code, out, _ = run_cli(capsys, "charfn", "--input", str(path), "--t-grid=-3:3:13")
        assert code == 0
        m = load_score_matrix(path)
        for point in json.loads(out)["points"]:
            expected = evaluate_cf(m, point["t"]).as_dict()
            assert point.keys() == expected.keys()
            for key in expected:
                assert point[key] == expected[key], key

    def test_threads_leave_the_report_unchanged(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m16.csv"
        rows = np.random.default_rng(16).standard_normal((16, 16)).tolist()
        path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows))
        parts = []
        walk = permanents._gray_walk
        monkeypatch.setattr(permanents, "_gray_walk", lambda *args: parts.append(args[-1]) or walk(*args))
        reports = []
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}.json"
            argv = ["charfn", "--input", str(path), "--t-grid=0:1.5:25", "--threads", threads, "--output", str(out)]
            assert run_cli(capsys, *argv) == (0, "", "")
            reports.append(out.read_bytes())
        assert parts == [1, 3]  # 25 t at n = 16: the --threads 3 walk runs as three parts
        assert reports[1] == reports[0]

    def test_bad_grid_spec(self, capsys, fixture_csv):
        code, _, err = run_cli(capsys, "charfn", "--input", fixture_csv, "--t-grid", "1:2")
        assert code == 2
        assert "t-grid" in err

    def test_unconverged_quadrature_exits_2(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m5.csv"
        rows = np.random.default_rng(2).standard_normal((5, 5)).tolist()
        path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows))
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
        code, out, err = run_cli(capsys, "charfn", "--input", str(path), "--t-grid=0:3:4")
        assert code == 2 and out == ""
        assert err.startswith("error: adaptive Simpson: more than 40 splits")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a:1:2", "t-grid must be start:stop:count with numeric fields, got 'a:1:2'"),
            ("0:1:2.5", "t-grid must be start:stop:count with numeric fields, got '0:1:2.5'"),
            ("0:1:0", "t-grid count must be >= 1, got 0"),
            ("0:1:-3", "t-grid count must be >= 1, got -3"),
        ],
    )
    def test_malformed_grid_fields(self, capsys, fixture_csv, spec, message):
        code, out, err = run_cli(capsys, "charfn", "--input", fixture_csv, f"--t-grid={spec}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec, field", [("nan:1:2", "start"), ("0:inf:2", "stop")])
    def test_nonfinite_grid_rejected(self, capsys, fixture_csv, spec, field):
        code, out, err = run_cli(capsys, "charfn", "--input", fixture_csv, f"--t-grid={spec}")
        assert code == 2
        assert out == ""
        assert f"t-grid {field}" in err


class TestSampleCommand:
    def test_reference_design(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--values", "1,2,3,4", "--m-draw", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma2"] == pytest.approx(5.0 / 3.0)
        assert payload["mu"] == pytest.approx(5.0)
        assert payload["bound_specialized"] == pytest.approx(payload["bound"], rel=1e-10)

    def test_two_point_design_attaches_exact_delta(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--values", "0,1", "--m-draw", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"]["method"] == "exact"
        assert payload["delta"]["delta"] == pytest.approx(0.3413447460685429, abs=1e-12)

    def test_negative_first_value_with_equals(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--values=-1.5,2,3,4", "--m-draw", "2")
        assert code == 0
        assert json.loads(out)["values"] == [-1.5, 2.0, 3.0, 4.0]
        # Without "=", argparse takes "-1.5,2,3,4" for an option: exit 2.
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--values", "-1.5,2,3,4", "--m-draw", "2"])
        assert exc.value.code == 2

    def test_non_decimal_value(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--values", "1,x,3", "--m-draw", "1")
        assert (code, out, err) == (2, "", "error: --values must be comma-separated decimals, got '1,x,3'\n")

    def test_full_draw_is_degenerate(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--values", "1,2,3", "--m-draw", "3")
        assert code == 2
        assert "degenerate" in err

    def test_m_draw_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--values", "1,2,3", "--m-draw", "5")
        assert code == 2
        assert "m_draw" in err

    def test_disagreeing_bounds_exit_2(self, capsys, monkeypatch):
        specialized = cclt.cli.sampling_bound_specialized
        monkeypatch.setattr(cclt.cli, "sampling_bound_specialized", lambda *args: 2.0 * specialized(*args))
        code, out, err = run_cli(capsys, "sample", "--values", "1,2,3,4", "--m-draw", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: specialized sampling bound")


class TestConstantsCommand:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == pytest.approx(0.09916191, abs=1e-7)
        assert payload["x0"] == pytest.approx(3.99589, abs=1e-4)
        assert payload["v_w"] == pytest.approx(5.329260, abs=1e-5)
        assert payload["c3"] == pytest.approx(1.2992, abs=1e-3)
        assert payload["c1"] <= 15.84
        assert payload["c2"] <= 0.65
        assert payload["c1_published"] == 15.84

    def test_override_flags(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--w", "0.8", "--m", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["w"] == 0.8
        assert payload["m"] == 1000

    def test_invalid_pipeline_inputs(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--c5", "0.001")
        assert code == 2
        assert "C5*C6" in err

    @pytest.mark.parametrize(
        "flag, value", [("--w", "nan"), ("--c4", "inf"), ("--c5", "inf"), ("--c6", "inf"), ("--c6", "-inf")]
    )
    def test_nonfinite_inputs_exit_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "constants", f"{flag}={value}")
        assert (code, out) == (2, "")
        assert err == f"error: {flag[2:]} must be finite, got {value}\n"

    def test_unbracketed_threshold_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--w", "0.99999999999")
        assert code == 2
        assert out == ""
        assert err.startswith("error: w = 0.99999999999")


class TestVerifyCommand:
    def test_constants_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "constants")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "constant_pipeline" in names

    def test_identity_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "identity", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload["checks"])

    def test_cf_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cf")
        assert code == 0
        payload = json.loads(out)
        names = {c["name"] for c in payload["checks"]}
        assert "cf_modulus_bound" in names
        assert all(c["passed"] for c in payload["checks"])

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "identity", "--seed=-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed must be in [0, 2^64)")

    def test_unknown_suite_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "nonsense")
        assert code == 2
        assert out == ""
        assert err == "error: unknown suite 'nonsense'; expected one of identity, bounds, constants, cf, all\n"

    def test_battery_loads_only_for_verify(self):
        # Only ``cclt.verify`` knows the suite names: importing the CLI leaves
        # the battery unloaded, and ``verify`` rejects an unknown suite itself.
        child = (
            "import sys\n"
            "import cclt.cli\n"
            "assert 'cclt.verify' not in sys.modules, 'cclt.verify imported with the CLI'\n"
            "sys.exit(cclt.cli.main(['verify', 'nonsense']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: unknown suite 'nonsense'")

    def test_threads_do_not_change_output(self, capsys):
        _, serial, _ = run_cli(capsys, "verify", "constants", "--threads", "1")
        _, threaded, _ = run_cli(capsys, "verify", "constants", "--threads", "4")
        assert serial == threaded


class TestScipyLoading:
    """scipy is imported only before Monte Carlo sampling on two or more threads: every other command runs without it."""

    CHILD = (
        "import json, sys\n"
        "import cclt.cli\n"
        "loaded = ['scipy' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cclt.cli.main(argv) == 0, argv\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )

    def loaded_after(self, *commands) -> list[bool]:
        """Whether scipy is loaded after ``import cclt.cli`` and after each command, in one fresh process."""
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(commands)],
            capture_output=True, text=True, env=child_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_phi_free_commands_leave_scipy_unloaded(self, tmp_path):
        path = tmp_path / "m6.csv"
        rows = np.random.default_rng(6).standard_normal((6, 6))
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        out = str(tmp_path / "out.json")
        commands = [
            ["charfn", "--input", str(path), "--t-grid=0:2:5", "--output", out],
            ["constants", "--output", out],
            *(["verify", suite, "--output", out] for suite in ("cf", "identity", "constants", "bounds")),
        ]
        assert self.loaded_after(*commands) == [False] * 7

    def test_exact_distance_commands_leave_scipy_unloaded(self, tmp_path):
        path = tmp_path / "m9.csv"
        rows = np.random.default_rng(9).standard_normal((9, 9))
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        out = str(tmp_path / "out.json")
        commands = [
            ["bound", "--input", str(path), "--output", out],
            ["exact", "--input", str(path), "--output", out],
            ["sample", "--values", "1,2,3,4,5,6,7,8", "--m-draw", "3", "--output", out],
        ]
        assert self.loaded_after(*commands) == [False] * 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sampling_bound_loads_scipy_only_on_threads(self, tmp_path, threads):
        path = tmp_path / "m5.csv"
        rows = np.random.default_rng(5).standard_normal((5, 5))
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        argv = ["bound", "--input", str(path), "--enum-cap", "4", "--mc-samples", "20000", "--threads", str(threads)]
        argv += ["--output", str(tmp_path / "out.json")]
        assert self.loaded_after(argv) == [False, threads > 1]


class TestThreadsConfig:
    def test_environment_is_ignored(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m5.csv"
        rows = np.random.default_rng(5).standard_normal((5, 5))
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        argv = ("bound", "--input", str(path), "--enum-cap", "4", "--mc-samples", "20000")
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("CCLT_THREADS", "many")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == plain

    def test_invalid_thread_count(self, capsys, fixture_csv):
        code, _, err = run_cli(capsys, "bound", "--input", fixture_csv, "--threads", "0")
        assert code == 2
        assert "threads" in err


# The options each command takes, its own and the shared ones it reads.
COMMAND_OPTIONS = {
    "bound": {"--input", "--format", "--enum-cap", "--mc-samples", "--seed", "--threads", "--output"},
    "exact": {"--input", "--format", "--enum-cap", "--output"},
    "charfn": {"--input", "--format", "--t-grid", "--perm-cap", "--quad-tol", "--threads", "--output"},
    "sample": {"--values", "--m-draw", "--enum-cap", "--threads", "--output"},
    "constants": {"--w", "--m", "--c4", "--c5", "--c6", "--output"},
    "verify": {"--seed", "--quad-tol", "--threads", "--output"},
}
CAPS = "enumeration and permanent caps must be >= 2"


def _subparsers():
    (action,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionValues:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_each_command_takes_only_the_options_it_reads(self, command):
        parser = _subparsers()[command]
        flags = {flag for action in parser._actions for flag in action.option_strings if flag.startswith("--")}
        assert flags - {"--help"} == COMMAND_OPTIONS[command]

    def test_every_command_is_pinned(self):
        assert set(_subparsers()) == set(COMMAND_OPTIONS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--seed", "1"],
            ["constants", "--enum-cap", "4"],
            ["charfn", "--t-grid=0:1:2", "--mc-samples", "20000"],
        ],
    )
    def test_unread_option_rejected(self, capsys, fixture_csv, argv):
        if argv[0] in ("exact", "charfn"):
            argv = argv[:1] + ["--input", fixture_csv] + argv[1:]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["charfn", "--t-grid=0:1:2", "--perm-cap", "1"], CAPS),
            (["sample", "--values", "1,2,3,4", "--m-draw", "2", "--enum-cap", "1"], CAPS),
            (["verify", "identity", "--quad-tol", "0"], "quad tolerance must be positive, got 0.0"),
            (["bound", "--mc-samples", "5"], "mc samples must be >= 10000, got 5"),
        ],
    )
    def test_read_value_checked_up_front(self, capsys, fixture_csv, argv, message):
        if argv[0] in ("bound", "charfn"):
            argv = argv[:1] + ["--input", fixture_csv] + argv[1:]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_nan_quad_tol_rejected(self, capsys, fixture_csv):
        for tol in ("nan", "inf"):
            code, _, err = run_cli(capsys, "verify", "identity", "--quad-tol", tol)
            assert code == 2
            assert "quad tolerance" in err
            code, _, err = run_cli(capsys, "charfn", "--input", fixture_csv, "--t-grid=0:1:2", "--quad-tol", tol)
            assert code == 2
            assert "quad tolerance" in err

    def test_seed_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "constants", f"--seed={(1 << 64) - 1}")
        assert code == 0
        assert json.loads(out)["passed"] is True
        for seed in (-1, 1 << 64):
            code, out, err = run_cli(capsys, "verify", "constants", f"--seed={seed}")
            assert code == 2
            assert out == ""
            assert err.startswith("error: seed must be in [0, 2^64)")


# The library functions that take a cap: those the CLI's --enum-cap and
# --perm-cap reach.  Every other path checks its module's constant.
CAP_PARAMETERS = {
    "enumerate_distribution": "enum_cap",
    "berry_esseen_bound": "enum_cap",
    "charfn_grid": "perm_cap",
    "evaluate_cf_grid": "perm_cap",
}


class TestLibraryCaps:
    def test_only_the_cli_paths_take_a_cap(self):
        caps = {"enum_cap": ENUM_CAP, "perm_cap": PERM_CAP}
        public = [getattr(cclt, name) for name in cclt.__all__]
        public += [fn for name, fn in vars(permanents).items() if not name.startswith("_")]
        found = {}
        for fn in public:
            if inspect.isfunction(fn):
                for cap, param in inspect.signature(fn).parameters.items():
                    if cap in caps:
                        found[fn.__name__] = (cap, param.default)
        assert found == {name: (cap, caps[cap]) for name, cap in CAP_PARAMETERS.items()}
        assert _subparsers()["exact"].get_default("enum_cap") == ENUM_CAP
        assert _subparsers()["charfn"].get_default("perm_cap") == PERM_CAP


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_argv_parses(tmp_path):
    """Every CLI job and warm-up of the benchmark parses, so dropping an option it passes fails here."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    parser = _build_parser()
    parsed = 0
    for name in workloads.WORKLOADS:
        jobs = workloads.build_jobs(name, 0, tmp_path / name) + workloads.build_warmups(name, tmp_path / name)
        for job in jobs:
            if job["kind"] == "cli":
                args = parser.parse_args(job["argv"])
                assert args.output == job["output"]
                parsed += 1
    assert parsed == 22
