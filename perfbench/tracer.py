"""Layer spans and work counters, recorded from outside the package.

``Tracer.install`` replaces every public function of ``cclt`` in each
namespace where callers look it up (``cclt.exact.perm_blocks``,
``cclt.constants.charfn_grid``, ``cclt.permanents.adaptive_simpson_vec``,
...) and the ``GammaProfile`` methods on the class itself.  Each replacement
opens a span of the layer that defines the function, so calls between
layers nest as child spans.  Integrands handed to the quadrature layer are
wrapped too, to count their calls and points; a vectorised integrand's time
belongs to the layer that wrote it, a scalar one's to ``quadrature`` (see
``Tracer._integrand``).  ``uninstall`` restores every original.

A layer's busy time is its self time: the wall time during which one of its
spans is the innermost open span.  When worker threads of a ``cclt`` thread
pool hold open spans, each interval is split evenly between them and the
waiting main thread is not charged, so the busy times of all layers plus the
harness time (no span open) add up to the traced wall time exactly.

Spans are aggregated per function in memory rather than stored one by one:
scalar quadratures make hundreds of thousands of integrand calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import threading
import tracemalloc
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "permanents",
    "exact",
    "permtables",
    "scores",
    "quadrature",
    "identity",
    "analytic",
    "verify",
    "constants",
    "cli",
    "matrixio",
)
# Work counters computed at the layer boundaries from call arguments (and,
# for atoms, results).  For one input they repeat exactly.
COUNTERS = (
    "permanents.gray_steps",
    "permanents.kernel_calls",
    "permanents.t_values",
    "exact.perms",
    "exact.mc_samples",
    "exact.atoms",
    "permtables.rows",
    "scores.quadruples",
    "scores.gamma_args",
    "quadrature.integrals",
    "quadrature.integrand_calls",
    "quadrature.points",
    "matrixio.bytes_read",
    "cli.report_bytes",
)
_MODULES = ("cclt",) + tuple(f"cclt.{name}" for name in LAYERS)
_PROFILE_METHODS = ("__init__", "gamma", "gamma_tilde", "gamma_many", "gamma_split_many")
_QUADRATURE = ("adaptive_simpson", "adaptive_simpson_vec")
# Private helpers that carry a layer's work inside scalar integrands, which
# are not spans themselves (see Tracer._integrand).
_PRIVATE = {"cclt.identity": ("_f_block",)}
_MB = 1e6


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _key(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


class Tracer:
    """Span bookkeeping and counters for one traced round."""

    def __init__(self):
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self._hook_table = self._hooks()
        self.reset()

    # -- accounting --------------------------------------------------------

    def reset(self) -> None:
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.peak_alloc = 0.0
        self._last = perf_counter()

    def _advance(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        active = [s[-1] for tid, s in self._stacks.items() if s and tid != self._main]
        if not active:
            main = self._stacks.get(self._main)
            active = [main[-1]] if main else ["harness"]
        share = dt / len(active)
        for layer in active:
            self.busy[layer] += share

    def _enter(self, layer: str) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._advance(perf_counter())
            self._stacks.setdefault(tid, []).append(layer)

    def _leave(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._advance(perf_counter())
            stack = self._stacks[tid]
            stack.pop()
            if not stack:
                del self._stacks[tid]

    def close(self) -> float:
        """Charge the time since the last event and return the traced wall time."""
        with self._lock:
            self._advance(perf_counter())
        return sum(self.busy.values())

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, layer: str, key: str, hook=None):
        """Wrap ``fn`` in a span of ``layer``.

        ``hook(tracer, bound_arguments)`` may count work and replace
        arguments in place; it returns None or a callable given the result.
        """
        tracer = self
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                after = hook(tracer, bound)
                args, kwargs = bound.args, bound.kwargs
            start = perf_counter()
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                tracer._leave()
                elapsed = perf_counter() - start
                with tracer._lock:
                    tracer.inclusive[key] += elapsed
                    tracer.calls[layer] += 1

        return wrapper

    def _generator(self, fn, layer: str, key: str):
        """Time each step of a generator (``perm_blocks``) as a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.calls[layer] += 1
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                tracer._enter(layer)
                try:
                    block = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._leave()
                    with tracer._lock:
                        tracer.inclusive[key] += perf_counter() - start
                tracer.count("permtables.rows", len(block))
                yield block

        return wrapper

    def _integrand(self, f, vectorised: bool, tally: list):
        """Count the calls and points of an integrand in ``tally``.

        A vectorised integrand runs as a span of the layer that wrote it.  A
        scalar one is only counted: it is called up to ~10^6 times per
        quadrature at well under a microsecond each, so a span per call would
        cost more than the work and its time is charged to ``quadrature``.
        """
        if not vectorised:

            def scalar(x):
                tally[0] += 1
                return f(x)

            return scalar
        tracer = self
        layer = _layer(f)
        key = _key(f)

        def integrand(xs):
            tally[0] += 1
            tally[1] += len(xs)
            start = perf_counter()
            tracer._enter(layer)
            try:
                return f(xs)
            finally:
                tracer._leave()
                with tracer._lock:
                    tracer.inclusive[key] += perf_counter() - start

        return integrand

    def _profile_init(self, init, key: str):
        """GammaProfile construction: count quadruples, record the tracemalloc peak."""
        tracer = self
        span = self._span(init, "scores", key)

        @functools.wraps(init)
        def wrapper(profile, matrix):
            n = len(getattr(matrix, "a", matrix))
            tracer.count("scores.quadruples", n * n * (n - 1) * (n - 1))
            # Starting or stopping tracemalloc while another thread allocates
            # can crash the interpreter (CPython < 3.13), so constructions
            # that run beside other threads (a cclt thread pool) are not measured.
            alone = threading.active_count() == 1 and not tracemalloc.is_tracing()
            if alone:
                tracemalloc.start()
            try:
                return span(profile, matrix)
            finally:
                if alone:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    tracer.peak_alloc = max(tracer.peak_alloc, peak / _MB)

        return wrapper

    # -- counter hooks (see the per-layer metric list in README.md) --------

    def _hooks(self):
        def size(x) -> int:
            return len(x) if hasattr(x, "__len__") else 1

        def kernel(tracer, n: int, ts: int) -> None:
            tracer.count("permanents.gray_steps", ((1 << n) - 1) * ts)
            tracer.count("permanents.kernel_calls", 1)
            tracer.count("permanents.t_values", ts)

        def permanent(tracer, bound):
            kernel(tracer, len(bound.arguments["matrix"]), 1)

        def charfn_grid(tracer, bound):
            kernel(tracer, bound.arguments["m"].n, size(bound.arguments["ts"]))

        def enumerate_distribution(tracer, bound):
            tracer.count("exact.perms", math.factorial(bound.arguments["m"].n))
            return lambda dist: tracer.count("exact.atoms", dist.values.size)

        def monte_carlo_delta(tracer, bound):
            tracer.count("exact.mc_samples", bound.arguments["samples"])

        def gamma_args(tracer, bound):
            args = bound.arguments
            tracer.count("scores.gamma_args", size(args["xs"] if "xs" in args else args["x"]))

        def load(tracer, bound):
            tracer.count("matrixio.bytes_read", os.path.getsize(bound.arguments["path"]))

        def quadrature(vectorised):
            def hook(tracer, bound):
                tally = [0, 0]
                bound.arguments["f"] = tracer._integrand(bound.arguments["f"], vectorised, tally)

                def after(_):
                    tracer.count("quadrature.integrals", 1)
                    tracer.count("quadrature.integrand_calls", tally[0])
                    tracer.count("quadrature.points", tally[1] if vectorised else tally[0])

                return after

            return hook

        return {
            "cclt.permanents.permanent": permanent,
            "cclt.permanents.charfn_grid": charfn_grid,
            "cclt.exact.enumerate_distribution": enumerate_distribution,
            "cclt.exact.monte_carlo_delta": monte_carlo_delta,
            "cclt.scores.GammaProfile.gamma": gamma_args,
            "cclt.scores.GammaProfile.gamma_many": gamma_args,
            "cclt.scores.GammaProfile.gamma_split_many": gamma_args,
            "cclt.matrixio.load_score_matrix": load,
            "cclt.matrixio.load_complex_matrix": load,
            "cclt.quadrature.adaptive_simpson": quadrature(False),
            "cclt.quadrature.adaptive_simpson_vec": quadrature(True),
        }

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn):
        """One wrapper per function object, shared by every lookup site."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        key = _key(fn)
        layer = _layer(fn)
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator(fn, layer, key)
        else:
            wrapper = self._span(fn, layer, key, self._hook_table.get(key))
        self._wrapped[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every public cclt function where it is looked up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname in _MODULES:
            module = importlib.import_module(modname)
            for name, value in list(vars(module).items()):
                private = name.startswith("_") and name not in _PRIVATE.get(modname, ())
                if private or isinstance(value, type) or not callable(value):
                    continue
                if not getattr(value, "__module__", "").startswith("cclt."):
                    continue
                if modname == "cclt.quadrature" and name in _QUADRATURE:
                    continue  # the reversed-bounds recursion would count an integral twice
                self._patch(module, name, self._wrap(value))
        profile = importlib.import_module("cclt.scores").GammaProfile
        for name in _PROFILE_METHODS:
            fn = vars(profile)[name]
            key = _key(fn)
            if name == "__init__":
                wrapper = self._profile_init(fn, key)
            else:
                wrapper = self._span(fn, "scores", key, self._hook_table.get(key))
            self._patch(profile, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._wrapped.clear()

    # -- per-round summary -------------------------------------------------

    def summary(self) -> dict:
        """Busy time, calls and counters of the round, keyed by metric name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.busy.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        out["harness.busy_s"] = self.busy.get("harness", 0.0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out["scores.peak_alloc_mb"] = self.peak_alloc
        inc = self.inclusive
        out["permanents.kernel_s"] = inc["cclt.permanents.permanent"] + inc["cclt.permanents.charfn_grid"]
        out["exact.enumerate_s"] = inc["cclt.exact.enumerate_distribution"]
        out["exact.mc_s"] = inc["cclt.exact.monte_carlo_delta"]
        out["functions"] = {k: v for k, v in sorted(inc.items())}
        return out
