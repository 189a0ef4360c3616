"""The committed report corpus: the exact bytes of a small set of reports.

Each case is one ``cclt`` command run in process through ``cclt.cli.main``,
or one library oracle whose values are written as JSON in the CLI's format.
``tests/corpus/`` holds the inputs, the recorded reports and the stamp of the
host that recorded them (numpy version, machine, enabled numpy SIMD
features).  ``tests/test_report_corpus.py`` regenerates every report and
compares it with the recorded one.

On the recording host the comparison is byte for byte.  numpy's SIMD
kernels (exp, sin, cos, sums) may round differently on another CPU or numpy
build, so on a host whose stamp differs the comparison is looser and says so
with a ``ForeignHostWarning``: keys, strings, booleans, integers and nulls
must still be equal, and each float must be within ``FOREIGN_RTOL`` relative
or ``FOREIGN_ATOL`` absolute of its recorded value.

To re-record after a deliberate change of values (and declare the move):

    PYTHONPATH=src python tests/report_corpus.py
"""

from __future__ import annotations

import json
import math
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

import cclt
from cclt.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
INPUTS = CORPUS / "inputs"
REPORTS = CORPUS / "reports"
STAMP = CORPUS / "host.json"

FOREIGN_RTOL = 1e-9
FOREIGN_ATOL = 1e-12

# argv of each CLI case; a token "@name" is the input file ``INPUTS / name``.
CLI_CASES = {
    "bound-gauss7": ["bound", "--input", "@gauss7.csv"],
    "bound-gauss8": ["bound", "--input", "@gauss8.csv"],
    "bound-gauss9": ["bound", "--input", "@gauss9.csv"],
    "bound-spearman9": ["bound", "--input", "@spearman9.csv"],
    "bound-mc-gauss12": ["bound", "--input", "@gauss12.csv", "--mc-samples", "20000"],
    "exact-gauss8": ["exact", "--input", "@gauss8.csv"],
    "sample-n6": ["sample", "--values=-1.5,0.25,2,3.75,-0.5,1", "--m-draw", "3"],
    "sample-n40": ["sample", "--values=" + ",".join(str((17 * i) % 40 / 8 - 2.5) for i in range(40)),
                   "--m-draw", "13"],
    "charfn-gauss8": ["charfn", "--input", "@gauss8.csv", "--t-grid=0:3:7"],
    "constants-default": ["constants"],
    "constants-custom": ["constants", "--w", "0.8", "--m", "1000", "--c4", "7", "--c5", "0.05", "--c6", "30"],
    "verify-identity": ["verify", "identity"],
    "verify-constants": ["verify", "constants"],
    "verify-bounds": ["verify", "bounds"],
    "verify-cf": ["verify", "cf"],
}


def _identity_n5() -> dict:
    res = cclt.identity_check(cclt.load_complex_matrix(INPUTS / "complex5.json"), tol=1e-10)
    return {
        "lhs": {"re": res.lhs.real, "im": res.lhs.imag},
        "rhs": {"re": res.rhs.real, "im": res.rhs.imag},
        "residual": res.residual,
    }


def _smoothing_n8() -> dict:
    m = cclt.load_score_matrix(INPUTS / "gauss8.csv")
    return {"value": cclt.smoothing_bound(m, 0.89, 0.75, tol=1e-8)}


LIBRARY_CASES = {"identity_check-n5": _identity_n5, "smoothing_bound-n8": _smoothing_n8}
CASES = tuple(CLI_CASES) + tuple(LIBRARY_CASES)


class ForeignHostWarning(UserWarning):
    """The corpus was recorded on another host; floats are compared at a tolerance."""


def host_stamp() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def to_text(payload: dict) -> str:
    """``payload`` as ``cclt`` writes a report."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_case(name: str, out_dir: Path) -> bytes:
    """Regenerate one report into ``out_dir`` and return its bytes."""
    target = Path(out_dir) / f"{name}.json"
    if name in LIBRARY_CASES:
        target.write_text(to_text(LIBRARY_CASES[name]()))
    else:
        argv = [str(INPUTS / tok[1:]) if tok.startswith("@") else tok for tok in CLI_CASES[name]]
        code = main(argv + ["--output", str(target)])
        if code != 0:
            raise AssertionError(f"{name}: cclt {' '.join(argv)} exited {code}")
    return target.read_bytes()


def _loose_difference(want, got, where: str = "") -> str | None:
    """The first place where ``got`` leaves the foreign-host tolerance of ``want``, or None."""
    if isinstance(want, float) and type(got) is float:
        close = math.isclose(want, got, rel_tol=FOREIGN_RTOL, abs_tol=FOREIGN_ATOL)
        return None if close or (math.isnan(want) and math.isnan(got)) else f"{where}: {got!r} != {want!r}"
    if type(want) is not type(got):
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        pairs = [(f"{where}.{k}", want[k], got[k]) for k in sorted(want)]
    elif isinstance(want, list):
        if len(want) != len(got):
            return f"{where}: {len(got)} entries != {len(want)}"
        pairs = [(f"{where}[{i}]", w, g) for i, (w, g) in enumerate(zip(want, got))]
    else:
        return None if want == got else f"{where}: {got!r} != {want!r}"
    return next((d for p, w, g in pairs if (d := _loose_difference(w, g, p))), None)


def difference(want: bytes, got: bytes, foreign: bool) -> str | None:
    """Why ``got`` does not match the recorded ``want``, or None when it does."""
    if got == want:
        return None
    if foreign:
        return _loose_difference(json.loads(want), json.loads(got))
    w_lines, g_lines = want.decode().splitlines(), got.decode().splitlines()
    for lineno, (w, g) in enumerate(zip(w_lines, g_lines), start=1):
        if w != g:
            return f"line {lineno}: {g.strip()!r} != recorded {w.strip()!r}"
    return f"{len(g_lines)} lines != recorded {len(w_lines)}"


def mismatches(out_dir: Path, names=CASES, reports: Path = REPORTS) -> list[str]:
    """Regenerate ``names`` into ``out_dir``; one line for each report that differs from ``reports``."""
    recorded = json.loads(STAMP.read_text())
    here = host_stamp()
    foreign = here != recorded
    if foreign:
        warnings.warn(
            ForeignHostWarning(
                f"report corpus recorded on {recorded}, running on {here}: floats compared at "
                f"rtol {FOREIGN_RTOL}, atol {FOREIGN_ATOL}; everything else exactly"
            ),
            stacklevel=2,
        )
    found = []
    for name in names:
        why = difference((Path(reports) / f"{name}.json").read_bytes(), run_case(name, out_dir), foreign)
        if why:
            found.append(f"{name}: {why}")
    return found


def _write_inputs() -> None:
    rng = np.random.default_rng(20260521)
    matrices = {f"gauss{n}.csv": rng.standard_normal((n, n)) for n in (7, 8, 9, 12)}
    matrices["spearman9.csv"] = np.outer(rng.permutation(9) + 1.0, rng.permutation(9) + 1.0)
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, a in matrices.items():
        np.savetxt(INPUTS / name, a, fmt="%.17g", delimiter=",")
    y = rng.uniform(-1.0, 1.0, (5, 5)) + 1j * rng.uniform(-1.0, 1.0, (5, 5))
    (INPUTS / "complex5.json").write_text(json.dumps({"re": y.real.tolist(), "im": y.imag.tolist()}) + "\n")


def record() -> None:
    """Rewrite the inputs, every report and the host stamp."""
    _write_inputs()
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        run_case(name, REPORTS)
    STAMP.write_text(to_text(host_stamp()))


if __name__ == "__main__":
    record()
    print(f"recorded {len(CASES)} reports under {CORPUS}", file=sys.stderr)
