"""Tests of the benchmark's output checker and memory guard.

    python3 -m pytest perfbench

Each test builds a real report with the ``cclt`` CLI on a small generated
input, confirms that the checker accepts it, then corrupts it and confirms
that the job counts as failed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cclt.cli  # noqa: E402
from checker import check_job, dkw_eps  # noqa: E402
from run import check_outputs  # noqa: E402
from workloads import _JobBuilder, complex_uniform, gaussian, memory_guard  # noqa: E402


def _builder(tmp_path: Path, workload: str = "bound-exact") -> _JobBuilder:
    return _JobBuilder(workload, 3, tmp_path)


def _run_cli(job: dict) -> dict:
    assert cclt.cli.main(job["argv"]) == 0
    return json.loads(Path(job["output"]).read_text())


@pytest.fixture
def bound_job(tmp_path):
    b = _builder(tmp_path)
    b.bound("n5", gaussian(np.random.default_rng(1), 5))
    job = b.jobs[0]
    return job, _run_cli(job)


@pytest.fixture
def charfn_job(tmp_path):
    b = _builder(tmp_path, "charfn-grid")
    b.charfn("n7", gaussian(np.random.default_rng(2), 7), 6.0, 9)
    job = b.jobs[0]
    return job, _run_cli(job)


def test_bound_report_passes(bound_job):
    job, out = bound_job
    assert check_job(job, out) == []


def test_bound_below_delta_fails(bound_job):
    job, out = bound_job
    bad = copy.deepcopy(out)
    bad["bound"] = out["delta"]["delta"] / 2
    assert check_job(job, bad)


def test_lyapunov_below_delta_fails(bound_job):
    job, out = bound_job
    bad = copy.deepcopy(out)
    bad["lyapunov_bound"] = out["delta"]["delta"] / 2
    assert any("lyapunov_bound" in p for p in check_job(job, bad))


def test_tampered_variance_fails(bound_job):
    job, out = bound_job
    bad = copy.deepcopy(out)
    bad["sigma2"] *= 1 + 1e-6
    assert check_job(job, bad)


def test_nonzero_exit_fails(bound_job):
    job, out = bound_job
    assert check_job(job, out, exit_code=2)


def test_charfn_report_passes(charfn_job):
    job, out = charfn_job
    assert check_job(job, out) == []


def test_tampered_phi_fails(charfn_job):
    job, out = charfn_job
    bad = copy.deepcopy(out)
    bad["points"][4]["phi"]["re"] += 1e-3
    assert check_job(job, bad)


def test_phi_above_modulus_bound_fails(charfn_job):
    job, out = charfn_job
    bad = copy.deepcopy(out)
    point = bad["points"][8]
    point["modulus_bound"] = abs(complex(point["phi"]["re"], point["phi"]["im"])) / 2
    assert any("modulus_bound" in p for p in check_job(job, bad))


def test_integral_bound_above_closed_fails(charfn_job):
    job, out = charfn_job
    bad = copy.deepcopy(out)
    point = bad["points"][5]
    point["diff_bound_integral"] = point["diff_bound_closed"] * 2 + 1.0
    assert any("diff_bound_closed" in p for p in check_job(job, bad))


def test_verify_passed_false_fails(tmp_path):
    b = _builder(tmp_path, "verify-oracles")
    b.verify("verify", "bounds")
    job = b.jobs[0]
    out = _run_cli(job)
    assert check_job(job, out) == []
    bad = copy.deepcopy(out)
    bad["passed"] = False
    assert any("passed = false" in p for p in check_job(job, bad))
    bad = copy.deepcopy(out)
    bad["checks"][0]["passed"] = False
    assert check_job(job, bad)
    assert check_job(job, out, exit_code=1)


def test_identity_residual_out_of_tolerance_fails(tmp_path):
    b = _builder(tmp_path, "verify-oracles")
    b.identity("n4", complex_uniform(np.random.default_rng(4), 4))
    job = b.jobs[0]
    res = cclt.identity_check(cclt.load_complex_matrix(job["input"]), tol=job["tol"])
    out = {"lhs": [res.lhs.real, res.lhs.imag], "rhs": [res.rhs.real, res.rhs.imag], "residual": res.residual}
    assert check_job(job, out) == []
    bad = dict(out, rhs=[out["rhs"][0] + 1e-6, out["rhs"][1]])
    bad["residual"] = abs(complex(*bad["lhs"]) - complex(*bad["rhs"]))
    assert check_job(job, bad)


def test_smoothing_below_distance_fails(tmp_path):
    b = _builder(tmp_path, "verify-oracles")
    b.smoothing("n6", gaussian(np.random.default_rng(5), 6), 10.0)
    job = b.jobs[0]
    m = cclt.load_score_matrix(job["input"])
    value = cclt.smoothing_bound(m, job["w"], job["T"], tol=job["tol"])
    assert check_job(job, {"value": value}) == []
    assert check_job(job, {"value": 1e-3})


def test_reference_mismatch_fails(bound_job):
    job, out = bound_job
    job = dict(job, anchor=True)
    assert check_job(job, out, reference=out) == []
    assert check_job(job, out, reference=None)
    ref = copy.deepcopy(out)
    ref["gamma_at"] *= 1 + 1e-7
    assert any("reference" in p for p in check_job(job, out, reference=ref))


def test_monte_carlo_reference_uses_the_dkw_band(tmp_path):
    b = _builder(tmp_path, "bound-large")
    b.bound("n12", gaussian(np.random.default_rng(6), 12))
    job = dict(b.jobs[0], anchor=True)
    out = _run_cli(job)
    assert out["delta"]["method"] == "monte-carlo"
    eps = dkw_eps(job["check"]["mc_samples"])
    near = copy.deepcopy(out)
    near["delta"]["delta"] += 1.5 * eps
    assert check_job(job, out, reference=near) == []
    far = copy.deepcopy(out)
    far["delta"]["delta"] += 2.5 * eps
    assert any("DKW" in p for p in check_job(job, out, reference=far))


def test_corrupted_report_counts_every_run_as_failed(bound_job):
    job, out = bound_job
    bad = copy.deepcopy(out)
    bad["bound"] = -1.0
    result = {
        "codes": {job["name"]: [0, 0, 0]},
        "outputs": {job["name"]: json.dumps(bad)},
        "errors": {},
        "mismatches": {job["name"]: 0},
    }
    attempted, failed, problems = check_outputs("bound-exact", [job], result)
    assert (attempted, failed) == (3, 3) and problems
    result["outputs"][job["name"]] = json.dumps(out)
    result["mismatches"][job["name"]] = 1
    assert check_outputs("bound-exact", [job], result)[:2] == (3, 1)


def test_memory_guard_refuses_large_profiles(tmp_path):
    b = _builder(tmp_path, "bound-large")
    b.bound("n60", gaussian(np.random.default_rng(7), 60))
    assert memory_guard(b.jobs, 64e9) is None
    message = memory_guard(b.jobs, 1e9)
    assert message and "n = 60" in message and "half" in message
    assert memory_guard(b.jobs, None) is None
