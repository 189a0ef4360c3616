"""The ``verify`` battery contract and planted violations of the shared checks.

A planted test lowers one bound that a check looks up in ``cclt.verify`` below
the exact quantity on one instance, and requires the check to fail and to name
that instance, so a check shared by ``cclt verify`` and the acceptance suite
cannot pass vacuously for both.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cclt import ParameterError, ScoreMatrix
from cclt import verify
from cclt.verify import restricted_instances, run_suite, t_grids

VERIFY_ALL = (
    "permanent_identity",
    "pointwise_derivative_identity",
    "beta_two_routes",
    "index_swap_identity",
    "cf_specialization",
    "theorem_and_lyapunov_domination",
    "clipped_moment_sandwich",
    "gamma_shape",
    "smoothing_inequality",
    "sampling_specialization",
    "monte_carlo_consistency",
    "kappa_and_maximizer",
    "cubic_correction_inequality",
    "smoothing_threshold_value",
    "constant_pipeline",
    "kernel_moment_closed_forms",
    "taylor_remainder_inequality",
    "cf_modulus_bound",
    "cf_modulus_equality_2x2",
    "cf_difference_bounds",
    "restricted_sum_bound",
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_all_runs_the_21_checks_in_order(seed):
    summary = run_suite("all", seed)
    assert [c["name"] for c in summary["checks"]] == list(VERIFY_ALL)
    assert summary["passed"] is True
    assert all(c["passed"] for c in summary["checks"])


def test_summary_leaves_the_report_version_to_the_cli():
    assert "schema" not in run_suite("constants")


def test_unknown_suite_raises_parameter_error():
    with pytest.raises(ParameterError, match="unknown suite 'nonsense'"):
        run_suite("nonsense")


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, r"seed must be in \[0, 2\^64\), got -1"),
        (1 << 64, rf"seed must be in \[0, 2\^64\), got {1 << 64}"),
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (None, "seed must be an integer, got None"),
    ],
)
def test_bad_seed_raises_parameter_error_before_any_work(monkeypatch, seed, message):
    called = []
    monkeypatch.setattr(verify, "_SUITES", {name: lambda *args: called.append(args) or () for name in verify._SUITES})
    with pytest.raises(ParameterError, match=f"^{message}$"):
        run_suite("all", seed)
    assert called == []


def test_numpy_integer_seed_gives_the_plain_seed_report():
    summary = run_suite("constants", np.uint64(3))
    assert type(summary["seed"]) is int
    assert summary == run_suite("constants", 3)


def gaussians(n: int, count: int) -> list:
    rng = np.random.default_rng(n)
    return [ScoreMatrix(rng.standard_normal((n, n))) for _ in range(count)]


def planted(check, corpus, monkeypatch, name: str, lower):
    """Run ``check`` before and after ``verify.<name>`` returns ``lower(real value, *call args)``."""
    before = check(corpus)
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kwargs: lower(real(*args, **kwargs), *args))
    after = check(corpus)
    assert before.passed, before.worst
    assert not after.passed, after.detail
    return after


def test_domination_check_catches_a_low_theorem_bound(monkeypatch):
    corpus = gaussians(3, 4)
    res = planted(
        lambda c: verify.check_theorem_domination(c, 1e-12), corpus, monkeypatch, "berry_esseen_bound",
        lambda rep, m: replace(rep, bound=rep.delta_report.delta / 2) if m is corpus[2] else rep,
    )
    assert res.detail["max_violation_bound"] > 0.0
    assert res.detail["max_violation_lyapunov"] < 0.0
    assert res.worst["max_violation_bound"] == "instance 2 (n = 3)"


def test_smoothing_check_catches_a_low_bound(monkeypatch):
    corpus = gaussians(3, 3)
    res = planted(
        lambda c: verify.check_smoothing(c, 0.0), corpus, monkeypatch, "smoothing_bound",
        lambda bound, profile, *_: 0.0 if profile.matrix is corpus[1] else bound,
    )
    assert res.worst["max_violation"].startswith("instance 1 (n = 3), T = ")


def test_modulus_check_catches_a_low_bound(monkeypatch):
    corpus = t_grids(gaussians(4, 3), 10.0, 21)
    res = planted(
        lambda c: verify.check_modulus_bound(c, 1e-12), corpus, monkeypatch, "charfn_bound_grid",
        lambda bound, profile, ts: bound / 2.0 if profile is corpus[1][0] else bound,
    )
    assert res.detail["max_violation"] >= 0.5  # |phi(0)| = 1 against a halved bound of 1
    assert res.worst["max_violation"] == "instance 1 (n = 4)"


@pytest.mark.parametrize(
    "name, key, part",
    [
        ("cf_diff_bound_integral_grid", "max_violation_integral", None),
        ("cf_diff_bound_closed_grid", "max_violation_closed", 0),
        ("cf_diff_bound_closed_grid", "max_violation_simplified", 1),
    ],
)
def test_cf_difference_check_catches_a_low_bound(monkeypatch, name, key, part):
    corpus = t_grids(gaussians(6, 3), 10.0, 21)

    def lower(out, profile, ts):
        if profile is not corpus[2][0]:
            return out
        if part is None:
            return np.zeros_like(out)
        return tuple(np.zeros_like(a) if i == part else a for i, a in enumerate(out))

    res = planted(
        lambda c: verify.check_cf_difference_bounds(c, 1e-12, quad_tol=1e-10), corpus, monkeypatch, name, lower
    )
    assert res.detail[key] > 1e-3
    assert res.worst[key] == "instance 2 (n = 6)"


def test_restricted_sum_check_catches_a_low_bound(monkeypatch):
    corpus = list(restricted_instances(gaussians(5, 2), np.random.default_rng(0), np.linspace(-2.0, 2.0, 3)))
    res = planted(
        lambda c: verify.check_restricted_sums(c, 1e-12), corpus, monkeypatch, "restricted_sum_grid",
        lambda out, profile, cols, rows, ts: (out[0], out[0] - 0.25) if profile is corpus[5][0] and len(cols) == 3
        else out,
    )
    assert res.detail["max_violation"] == pytest.approx(0.25)
    assert res.worst["max_violation"].startswith("instance 8 (n = 5), ell = 3, t = ")


def test_a_nan_violation_fails_the_check(monkeypatch):
    corpus = t_grids(gaussians(4, 3), 10.0, 21)
    res = planted(
        lambda c: verify.check_modulus_bound(c, 1e-12), corpus, monkeypatch, "charfn_bound_grid",
        lambda bound, profile, ts: bound * np.nan if profile is corpus[0][0] else bound,
    )
    assert np.isnan(res.detail["max_violation"])
    assert res.worst["max_violation"] == "instance 0 (n = 4)"
