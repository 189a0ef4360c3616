"""Contracts that span the public API: one profile per matrix, finite real
arguments, and the README's library quick start."""

from __future__ import annotations

import dataclasses
import inspect
import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import cclt
from cclt import ComplexScoreMatrix, GammaProfile, ParameterError, ScoreMatrix
from cclt.permanents import cf_diff_bound_integral_grid, evaluate_cf_grid
from conftest import rand_complex_entries

README = Path(__file__).resolve().parents[1] / "README.md"

# The arguments after ``m`` of every public callable whose first parameter is m.
M_ARGS = {
    "berry_esseen_bound": (),
    "cf_diff_bound_closed": (0.7,),
    "cf_diff_bound_integral": (0.7,),
    "charfn": (0.7,),
    "charfn_bound": (0.7,),
    "enumerate_distribution": (),
    "evaluate_cf": (0.7,),
    "gauss_cf": (0.7,),
    "h_ell": (0.7, 2),
    "monte_carlo_delta": (10_000, 0),
    "restricted_sum_check": ([1], [2], 0.7),
    "smoothing_bound": (0.89, 2.0),
}


def _takes_m_first(obj) -> bool:
    if isinstance(obj, type) or not callable(obj):
        return False
    return next(iter(inspect.signature(obj).parameters), None) == "m"


def _plain(value):
    """Dataclasses as dicts and arrays as lists, so results compare with ==."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def test_every_m_first_callable_is_tabled():
    assert {name for name in cclt.__all__ if _takes_m_first(getattr(cclt, name))} == set(M_ARGS)


@pytest.mark.parametrize("name", sorted(M_ARGS))
def test_profile_gives_the_matrix_value(rng, name):
    fn = getattr(cclt, name)
    m = ScoreMatrix(rng.standard_normal((5, 5)))
    assert _plain(fn(GammaProfile(m), *M_ARGS[name])) == _plain(fn(m, *M_ARGS[name]))


@lru_cache(maxsize=None)
def _inputs(n: int) -> tuple[ScoreMatrix, GammaProfile, ComplexScoreMatrix]:
    """A real matrix, its profile and a complex matrix of size n (n = 25 takes
    the row-pair gamma route, and is above every cap)."""
    rng = np.random.default_rng(n)
    m = ScoreMatrix(rng.standard_normal((n, n)))
    return m, GammaProfile(m), ComplexScoreMatrix(rand_complex_entries(rng, n))


# Every public real argument: (name in the message, call with the value v).
REAL_ARGUMENTS = {
    "GammaProfile.gamma": ("x", lambda m, p, y, v: p.gamma(v)),
    "GammaProfile.gamma_tilde": ("x", lambda m, p, y, v: p.gamma_tilde(v)),
    "GammaProfile.gamma_many": ("x", lambda m, p, y, v: p.gamma_many([0.5, v])),
    "GammaProfile.gamma_split_many": ("x", lambda m, p, y, v: p.gamma_split_many([0.5, v])),
    "charfn": ("t", lambda m, p, y, v: cclt.charfn(m, v)),
    "charfn_bound": ("t", lambda m, p, y, v: cclt.charfn_bound(m, v)),
    "gauss_cf": ("t", lambda m, p, y, v: cclt.gauss_cf(m, v)),
    "h_ell": ("t", lambda m, p, y, v: cclt.h_ell(m, v, 2)),
    "restricted_sum_check": ("t", lambda m, p, y, v: cclt.restricted_sum_check(m, [1], [2], v)),
    "cf_diff_bound_integral": ("t", lambda m, p, y, v: cclt.cf_diff_bound_integral(m, v)),
    "cf_diff_bound_closed": ("t", lambda m, p, y, v: cclt.cf_diff_bound_closed(m, v)),
    "evaluate_cf": ("t", lambda m, p, y, v: cclt.evaluate_cf(m, v)),
    "evaluate_cf.tol": ("tol", lambda m, p, y, v: cclt.evaluate_cf(m, 0.5, tol=v)),
    "evaluate_cf_grid.tol": ("tol", lambda m, p, y, v: evaluate_cf_grid(m, [0.5, 1.0], tol=v)),
    "cf_diff_bound_integral.tol": ("tol", lambda m, p, y, v: cclt.cf_diff_bound_integral(m, 0.5, tol=v)),
    "cf_diff_bound_integral_grid.tol": ("tol", lambda m, p, y, v: cf_diff_bound_integral_grid(m, [0.5], tol=v)),
    "smoothing_bound.tol": ("tol", lambda m, p, y, v: cclt.smoothing_bound(m, 0.5, 1.0, tol=v)),
    "identity_check.tol": ("tol", lambda m, p, y, v: cclt.identity_check(y, tol=v)),
    "f_terms": ("u", lambda m, p, y, v: cclt.f_terms(y, v)),
    "f_residual": ("u", lambda m, p, y, v: cclt.f_residual(y, v)),
    "taylor_remainder_check": ("x", lambda m, p, y, v: cclt.taylor_remainder_check(v, 2)),
    "normal_cdf": ("x", lambda m, p, y, v: cclt.normal_cdf(v)),
    "theorem_constants.w": ("w", lambda m, p, y, v: cclt.theorem_constants(w=v)),
    "theorem_constants.m": ("m", lambda m, p, y, v: cclt.theorem_constants(m=v)),
    "theorem_constants.c4": ("c4", lambda m, p, y, v: cclt.theorem_constants(c4=v)),
    "theorem_constants.c5": ("c5", lambda m, p, y, v: cclt.theorem_constants(c5=v)),
    "theorem_constants.c6": ("c6", lambda m, p, y, v: cclt.theorem_constants(c6=v)),
}


@pytest.mark.parametrize("n", [5, 25])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(REAL_ARGUMENTS))
def test_nonfinite_real_argument_refused(case, value, n):
    name, call = REAL_ARGUMENTS[case]
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{name} must be finite, got {value}')}$"):
        call(*_inputs(n), value)


@pytest.mark.parametrize("case", sorted(REAL_ARGUMENTS))
def test_non_numeric_real_argument_refused(case):
    name, call = REAL_ARGUMENTS[case]
    with pytest.raises(ParameterError, match=f"^{name} must be a real number, got .*'x'"):
        call(*_inputs(5), "x")


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    assert capsys.readouterr().out
