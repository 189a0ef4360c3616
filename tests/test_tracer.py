"""The benchmark's layer tracer (``perfbench/tracer.py``) against the package.

The tracer looks up ``GammaProfile`` methods and hooked functions by name
and binds their parameters by name, so a rename in ``cclt`` would break
every traced benchmark round.  These jobs run untraced, then traced, and
must give the same reports byte for byte and nonzero work counters.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import cclt
import cclt.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _reports(tmp_path: Path, a: np.ndarray, y: np.ndarray) -> dict[str, str]:
    matrix = tmp_path / "a.csv"
    matrix.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in a))
    out = tmp_path / "out.json"
    commands = {
        "bound": ["bound", "--input", str(matrix), "--seed", "0"],
        "charfn": ["charfn", "--input", str(matrix), "--t-grid=0.0:1.5:4"],
        "sample": ["sample", "--values=1,2,3,5,8,13", "--m-draw", "3"],
        "verify": ["verify", "constants", "--seed", "0"],
    }
    reports = {}
    for name, argv in commands.items():
        assert cclt.cli.main(argv + ["--threads", "1", "--output", str(out)]) == 0
        reports[name] = out.read_text()
    chk = cclt.identity_check(cclt.ComplexScoreMatrix(y))
    reports["identity"] = json.dumps([repr(chk.lhs), repr(chk.rhs), repr(chk.residual)])
    m = cclt.ScoreMatrix(a)
    T = 2.0 / math.sqrt(cclt.center(m).sigma2)
    reports["smoothing"] = repr(cclt.smoothing_bound(m, 0.5, T))
    return reports


def test_traced_reports_match_untraced(rng, tmp_path):
    a = rng.standard_normal((6, 6))
    y = rng.uniform(-1.0, 1.0, (4, 4)) + 1j * rng.uniform(-1.0, 1.0, (4, 4))
    untraced = _reports(tmp_path, a, y)
    tracer = _tracer()
    tracer.install()
    try:
        traced = _reports(tmp_path, a, y)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert traced == untraced
    for counter in ("quadrature.integrals", "permanents.kernel_calls", "exact.perms"):
        assert summary[counter] > 0, counter
