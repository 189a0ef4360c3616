"""Output checks for every benchmark job.

``check_job`` returns a list of problems (empty when the output is correct).
It checks the mathematical invariants of each report against quantities the
benchmark computes on its own from the generated inputs (mean, variance,
the normal characteristic function, phi by Glynn's permanent formula,
independent Kolmogorov distances for small n), and, for anchor jobs, agreement with the values recorded from the
seed commit in ``reference.json``.

Tolerances:

* deterministic numbers vs. the reference and vs. independent recomputation:
  relative 1e-9, absolute 1e-12;
* phi = perm(exp(i t a))/n! is a sum of 2^n terms of modulus up to k^n, so its
  rounding error scales with u * sum_k C(n, k) k^n / n! (u = 2^-53): 6e-10 at
  n = 14, 9e-8 at n = 18, 1.1e-6 at n = 20.  Every check that involves phi
  allows this much (``phi_tol``); without it phi(0) = 0.999999994 at n = 18
  already fails |phi - gauss| <= 0, the bound at t = 0;
* characteristic-function bounds: the report's quadrature tolerance (1e-10);
* Monte Carlo distances: the Dvoretzky-Kiefer-Wolfowitz band with Massart's
  constant, eps = sqrt(log(2/alpha) / (2 N)) at alpha = 1e-6.  Two estimates
  of one distance differ by at most 2 eps; an estimate exceeds the true
  distance, and so any valid bound, by at most eps.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
from scipy.special import ndtr

from workloads import QUAD_TOL, mu_of, read_matrix, sigma2_of

RTOL = 1e-9
ATOL = 1e-12
DKW_ALPHA = 1e-6
BOUND_C1 = 15.84
V_089 = 5.329260  # smoothing threshold v(0.89), ROADMAP/README value, |err| < 1e-6
VERIFY_ALL_CHECKS = 21


def dkw_eps(samples: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def phi_tol(n: int) -> float:
    """Rounding scale of Ryser's sum for an n x n unit-modulus matrix, over n!."""
    terms = sum(math.comb(n, k) * k**n for k in range(1, n + 1))
    return ATOL + 2.0**-53 * terms / math.factorial(n)


def _close(x, y, rtol=RTOL, atol=ATOL) -> bool:
    return x is not None and y is not None and abs(x - y) <= atol + rtol * max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# independent oracles


def exact_delta(a: np.ndarray) -> float:
    """Kolmogorov distance by enumerating all n! permutations (n <= 8)."""
    n = a.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    s = np.sort(a[np.arange(n), perms].sum(axis=1))
    scale = max(abs(s[0]), abs(s[-1]), 1e-300)
    keep = np.append(np.diff(s) > 1e-12 * scale, True)
    values = (s[keep] - mu_of(a)) / math.sqrt(sigma2_of(a))
    cum = (np.flatnonzero(keep) + 1) / s.size
    left = np.concatenate(([0.0], cum[:-1]))
    phi = ndtr(values)
    return float(np.max(np.maximum(np.abs(cum - phi), np.abs(left - phi))))


def charfn_glynn(a: np.ndarray, ts: np.ndarray, chunk: int = 1 << 13) -> np.ndarray:
    """phi(t) = perm(exp(i t a)) / n! by Glynn's formula, vectorised over t.

    perm(M) = 2^-(n-1) sum over d in {+-1}^n with d_0 = +1 of
    prod(d) prod_j (d @ M)_j; an independent kernel (Ryser's formula is the
    program's).  The sign vectors are taken in chunks, each a real matrix
    product with the real and imaginary parts of all t at once.
    """
    n = a.shape[0]
    ts = np.asarray(ts, dtype=float)
    m = np.exp(1j * ts[None, None, :] * a[:, :, None]).reshape(n, n * ts.size)  # [i, (j, t)]
    total = np.zeros(ts.size, dtype=complex)
    count = 1 << (n - 1)
    bits = np.arange(n - 1)
    for start in range(0, count, chunk):
        codes = np.arange(start, min(start + chunk, count))
        signs = 1.0 - 2.0 * ((codes[:, None] >> bits[None, :]) & 1)
        d = np.hstack((np.ones((codes.size, 1)), signs))
        sums = (d @ m.real + 1j * (d @ m.imag)).reshape(codes.size, n, ts.size)
        total += (np.prod(d, axis=1)[:, None] * np.prod(sums, axis=1)).sum(axis=0)
    return total / (2.0 ** (n - 1) * math.factorial(n))


def delta_lower_bound(a: np.ndarray, samples: int = 100_000, seed: int = 0) -> float:
    """Lower confidence bound on the Kolmogorov distance: MC estimate minus eps."""
    n = a.shape[0]
    if n <= 8:
        return exact_delta(a)
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
    s = np.sort((a[np.arange(n), perms].sum(axis=1) - mu_of(a)) / math.sqrt(sigma2_of(a)))
    phi = ndtr(s)
    grid = np.arange(1, samples + 1) / samples
    dev = np.maximum(np.abs(grid - phi), np.abs(grid - 1.0 / samples - phi))
    return float(dev.max()) - dkw_eps(samples)


# ---------------------------------------------------------------------------
# per-kind checks


def _check_bound(out: dict, spec: dict, a: np.ndarray) -> list[str]:
    p = []
    n = spec["n"]
    if out.get("n") != n:
        return [f"n = {out.get('n')}, expected {n}"]
    sigma2 = sigma2_of(a)
    if not _close(out["mu"], mu_of(a), atol=1e-12 * max(1.0, float(np.abs(a).max())) * n):
        p.append(f"mu {out['mu']} != {mu_of(a)}")
    if not _close(out["sigma2"], sigma2):
        p.append(f"sigma2 {out['sigma2']} != {sigma2}")
    if not _close(out["bound"], BOUND_C1 / out["sigma2"] * out["gamma_at"], rtol=1e-12):
        p.append("bound != C1/sigma2 * gamma_at")
    if not out["gamma_at"] >= 0.0 or not out["lyapunov_bound"] > 0.0:
        p.append("negative gamma_at or lyapunov_bound")
    d = out.get("delta")
    if not isinstance(d, dict):
        return p + ["delta missing"]
    delta = d["delta"]
    if not 0.0 <= delta <= 1.0:
        p.append(f"delta {delta} outside [0, 1]")
    if d["method"] == "exact":
        if n > 10:
            p.append("exact delta above the enumeration cap")
        slack_tol = ATOL
        if not (d["atoms_count"] is not None and 1 <= d["atoms_count"] <= math.factorial(n)):
            p.append(f"atoms_count {d['atoms_count']}")
    elif d["method"] == "monte-carlo":
        samples = spec["mc_samples"]
        slack_tol = dkw_eps(samples)
        if n <= 10:
            p.append("Monte Carlo delta below the enumeration cap")
        if not _close(d["std_error"], 0.5 / math.sqrt(samples), rtol=1e-12):
            p.append(f"std_error {d['std_error']}")
    else:
        return p + [f"unknown delta method {d['method']!r}"]
    if delta > out["bound"] + slack_tol:
        p.append(f"bound {out['bound']} < delta {delta}")
    if delta > out["lyapunov_bound"] + slack_tol:
        p.append(f"lyapunov_bound {out['lyapunov_bound']} < delta {delta}")
    if not _close(out["slack"], out["bound"] - delta, rtol=1e-12):
        p.append("slack != bound - delta")
    return p


def _check_sample(out: dict, spec: dict) -> list[str]:
    p = []
    c = np.array(spec["values"])
    n, m = c.size, spec["m_draw"]
    if out.get("n") != n or out.get("m_draw") != m or out.get("values") != spec["values"]:
        return [f"design echo mismatch: n={out.get('n')} m_draw={out.get('m_draw')}"]
    sigma2 = m * (n - m) / (n * (n - 1)) * float(((c - c.mean()) ** 2).sum())
    if not _close(out["sigma2"], sigma2):
        p.append(f"sigma2 {out['sigma2']} != closed form {sigma2}")
    if not _close(out["mu"], m * float(c.mean()), atol=1e-12 * n * max(1.0, float(np.abs(c).max()))):
        p.append(f"mu {out['mu']} != {m * float(c.mean())}")
    if abs(out["bound_specialized"] - out["bound"]) > 1e-10 * max(1.0, out["bound"]):
        p.append("bound_specialized disagrees with bound")
    if not _close(out["bound"], BOUND_C1 / out["sigma2"] * out["gamma_at"], rtol=1e-12):
        p.append("bound != C1/sigma2 * gamma_at")
    if n > 10 and out.get("delta") is not None:
        p.append("delta attached above the enumeration cap")
    return p


def _check_charfn(out: dict, spec: dict, a: np.ndarray) -> list[str]:
    p = []
    start, stop, count = spec["t_grid"]
    ts = np.linspace(start, stop, count)
    points = out.get("points", [])
    if out.get("n") != spec["n"] or len(points) != count:
        return [f"n = {out.get('n')}, {len(points)} points; expected n = {spec['n']}, {count} points"]
    mu, sigma2 = mu_of(a), sigma2_of(a)
    tol = phi_tol(spec["n"])
    oracle = charfn_glynn(a, ts)
    for t, pt, phi_ref in zip(ts, points, oracle):
        phi = complex(pt["phi"]["re"], pt["phi"]["im"])
        gauss = complex(pt["gauss"]["re"], pt["gauss"]["im"])
        where = f"t={pt['t']}"
        if pt["t"] != float(t):
            p.append(f"{where}: expected t = {float(t)}")
        if not cmath.isfinite(phi):
            p.append(f"{where}: phi not finite")
            continue
        if abs(phi - phi_ref) > 2.0 * tol:
            p.append(f"{where}: phi {phi} differs from Glynn's formula {phi_ref}")
        expect = cmath.exp(1j * t * mu - sigma2 * t * t / 2.0)
        if abs(gauss - expect) > 1e-9 * max(1.0, abs(t * mu)):
            p.append(f"{where}: gauss {gauss} != {expect}")
        if abs(phi) > pt["modulus_bound"] + tol:
            p.append(f"{where}: |phi| {abs(phi)} > modulus_bound {pt['modulus_bound']}")
        diff = abs(phi - gauss)
        if diff > pt["diff_bound_integral"] + QUAD_TOL + tol:
            p.append(f"{where}: |phi - gauss| {diff} > diff_bound_integral {pt['diff_bound_integral']}")
        if pt["diff_bound_integral"] > pt["diff_bound_closed"] + QUAD_TOL:
            p.append(f"{where}: diff_bound_integral > diff_bound_closed")
        simplified = pt["diff_bound_closed_simplified"]
        if spec["n"] >= 6 and (simplified is None or diff > simplified + tol):
            p.append(f"{where}: simplified closed bound {simplified} violated or missing")
        if t == 0.0 and abs(phi - 1.0) > tol:
            p.append(f"{where}: phi(0) = {phi}")
    return p


def _check_verify(out: dict, spec: dict, exit_code: int) -> list[str]:
    p = []
    if exit_code != 0:
        p.append(f"exit code {exit_code}")
    if out.get("passed") is not True:
        p.append("verify reports passed = false")
    if out.get("suite") != spec["suite"] or out.get("seed") != spec["seed"]:
        p.append(f"suite/seed echo {out.get('suite')}/{out.get('seed')}")
    checks = out.get("checks", [])
    failed = [c["name"] for c in checks if not c.get("passed")]
    if failed:
        p.append(f"failed checks: {', '.join(failed)}")
    if spec["suite"] == "all" and len(checks) != VERIFY_ALL_CHECKS:
        p.append(f"{len(checks)} checks, expected {VERIFY_ALL_CHECKS}")
    return p


def _check_identity(out: dict, spec: dict) -> list[str]:
    lhs = complex(*out["lhs"])
    rhs = complex(*out["rhs"])
    p = []
    if out["residual"] > 10.0 * spec["tol"]:
        p.append(f"identity residual {out['residual']} > 10 * tol")
    if not _close(out["residual"], abs(lhs - rhs), rtol=1e-9, atol=1e-15):
        p.append("residual != |lhs - rhs|")
    return p


def _check_smoothing(out: dict, spec: dict, a: np.ndarray) -> list[str]:
    value = out["value"]
    w, cutoff = spec["w"], spec["T"]
    remainder = (1.0 + w) * V_089 / (math.sqrt(2.0 * math.pi) * w * math.sqrt(sigma2_of(a)) * cutoff)
    if not math.isfinite(value):
        return ["smoothing bound not finite"]
    p = []
    if value < remainder * (1.0 - 1e-6):
        p.append(f"smoothing bound {value} below its remainder term {remainder}")
    lower = delta_lower_bound(a)
    if value < lower:
        p.append(f"smoothing bound {value} below the distance {lower}")
    return p


def _compare(out, ref, path: str, mc_eps: float, phi_atol: float) -> list[str]:
    """Recursive comparison with the recorded reference."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ from reference"]
        if ref.get("method") == "monte-carlo":
            p = []
            if abs(out["delta"] - ref["delta"]) > 2.0 * mc_eps:
                p.append(f"{path}.delta {out['delta']} outside the DKW band of reference {ref['delta']}")
            for key in ("method", "n", "atoms_count", "std_error"):
                if out[key] != ref[key]:
                    p.append(f"{path}.{key} {out[key]!r} != reference {ref[key]!r}")
            return p
        p = []
        for key in ref:
            if path == "" and key == "slack" and isinstance(ref.get("delta"), dict) \
                    and ref["delta"].get("method") == "monte-carlo":
                continue  # bound - MC delta: covered by the band on delta
            p += _compare(out[key], ref[key], f"{path}.{key}", mc_eps, phi_atol)
        return p
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length differs from reference"]
        return [q for i, (o, r) in enumerate(zip(out, ref))
                for q in _compare(o, r, f"{path}[{i}]", mc_eps, phi_atol)]
    if isinstance(ref, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        atol = phi_atol if ".phi." in path + "." else ATOL
        return [] if _close(float(out), ref, atol=atol) else [f"{path}: {out!r} != reference {ref!r}"]
    return [] if out == ref else [f"{path}: {out!r} != reference {ref!r}"]


def check_job(job: dict, out, exit_code: int = 0, reference=None) -> list[str]:
    """Problems found in one job's output (an empty list means correct)."""
    spec = job["check"]
    kind = spec["type"]
    if out is None:
        return ["no output"]
    try:
        if kind != "verify" and exit_code != 0:
            return [f"exit code {exit_code}"]
        if kind == "bound":
            problems = _check_bound(out, spec, read_matrix(spec["input"]))
        elif kind == "sample":
            problems = _check_sample(out, spec)
        elif kind == "charfn":
            problems = _check_charfn(out, spec, read_matrix(spec["input"]))
        elif kind == "verify":
            problems = _check_verify(out, spec, exit_code)
        elif kind == "identity":
            problems = _check_identity(out, spec)
        elif kind == "smoothing":
            problems = _check_smoothing(out, spec, read_matrix(spec["input"]))
        else:
            return [f"unknown check type {kind!r}"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    if job.get("anchor"):
        if reference is None:
            problems.append("no reference recorded for this anchor job")
        else:
            mc_eps = dkw_eps(spec.get("mc_samples", 1))
            problems += _compare(out, reference, "", mc_eps, phi_tol(spec.get("n", 2)))
    return problems
