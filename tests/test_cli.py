from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cclt
from cclt import quadrature
from cclt import (
    GammaProfile,
    MatrixParseError,
    ParameterError,
    evaluate_cf,
    load_complex_matrix,
    load_score_matrix,
)
from cclt.cli import RunConfig, main

TWO_BY_TWO_CSV = "1,-1\n-1,1\n"


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fix2.csv"
    path.write_text(TWO_BY_TWO_CSV)
    return str(path)


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
        src = str(Path(cclt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["bound", "--input", str(path), "--mc-samples", "10000", "--output", str(report)]
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env, timeout=300
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

    def test_full_draw_is_degenerate(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--values", "1,2,3", "--m-draw", "3")
        assert code == 2
        assert "degenerate" in err

    def test_m_draw_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--values", "1,2,3", "--m-draw", "5")
        assert code == 2
        assert "m_draw" in err


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
        src = str(Path(cclt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: unknown suite 'nonsense'")

    def test_threads_do_not_change_output(self, capsys):
        _, serial, _ = run_cli(capsys, "verify", "constants", "--threads", "1")
        _, threaded, _ = run_cli(capsys, "verify", "constants", "--threads", "4")
        assert serial == threaded


class TestThreadsConfig:
    def test_env_fallback(self, capsys, fixture_csv, monkeypatch):
        monkeypatch.setenv("CCLT_THREADS", "3")
        code, out, _ = run_cli(capsys, "bound", "--input", fixture_csv)
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(63.36)

    def test_invalid_env_value(self, capsys, fixture_csv, monkeypatch):
        monkeypatch.setenv("CCLT_THREADS", "many")
        code, _, err = run_cli(capsys, "bound", "--input", fixture_csv)
        assert code == 2
        assert "CCLT_THREADS" in err

    def test_flag_beats_env(self, capsys, fixture_csv, monkeypatch):
        monkeypatch.setenv("CCLT_THREADS", "bogus")
        code, _, _ = run_cli(capsys, "bound", "--input", fixture_csv, "--threads", "2")
        assert code == 0

    def test_invalid_thread_count(self, capsys, fixture_csv):
        code, _, err = run_cli(capsys, "bound", "--input", fixture_csv, "--threads", "0")
        assert code == 2
        assert "threads" in err


class TestRunConfig:
    def test_nan_quad_tol_rejected(self, capsys, fixture_csv):
        with pytest.raises(ParameterError):
            RunConfig(quad_tol=math.nan)
        code, _, err = run_cli(capsys, "charfn", "--input", fixture_csv, "--t-grid=0:1:2", "--quad-tol", "nan")
        assert code == 2
        assert "quad tolerance" in err

    def test_seed_range(self):
        assert RunConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1
        for seed in (-1, 1 << 64):
            with pytest.raises(ParameterError, match="seed"):
                RunConfig(seed=seed)
