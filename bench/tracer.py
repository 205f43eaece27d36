"""Pass-through tracing of chaoskit from outside the package.

install() replaces chaoskit's public functions with wrappers that record
one span per call (name, start, end, parent span) and a few counts taken
from the call's arguments or result.  Nothing inside the package is
edited: each wrapper is bound under every name that held the original in
any loaded chaoskit module (functionals, for example, binds
sample_integral2_spectral by name), EmbeddedFunctional methods are
replaced on the class, numpy.linalg.cholesky and eigvalsh are wrapped
only in the numpy namespace chaoskit modules see, and the generators
that rng.stream returns are wrapped in a forwarding proxy that counts the
standard normals drawn.  Spans stay in memory until the caller writes
them out.  The wrappers return exactly what the originals return, so a
traced run must write byte-identical contract files.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from time import perf_counter

import numpy as np

MODULES = ("cli", "functionals", "embeddings", "chaos", "tensors",
           "diagnostics", "acceptance", "reference", "rng")
_FUNCTIONAL_METHODS = ("variance_exact", "excess_kurtosis_exact",
                       "kurtosis_exact", "contraction_ratio",
                       "sample_statistic", "value", "statistic")
_LINALG = ("cholesky", "eigvalsh")
_EXACT = ("functionals.variance_exact", "functionals.excess_kurtosis_exact",
          "functionals.contraction_ratio")

# per-layer metrics documented in bench/README.md; reported even when the
# workload never enters the layer (value 0)
NAMED = (
    "cli.self.s", "cli.bytes_written",
    "functionals.exact.s", "functionals.sample_statistic.s",
    "embeddings.build_embedding.s", "embeddings.embed_kernel2.s",
    "embeddings.jittered",
    "linalg.cholesky.calls", "linalg.cholesky.s",
    "linalg.eigvalsh.calls", "linalg.eigvalsh.s",
    "chaos.sample_integral2_spectral.s", "chaos.normals_drawn",
    "chaos.normals_per_draw", "chaos.eval_integral.s",
    "chaos.sample_integral.s", "chaos.fourth_moment_exact.s",
    "chaos.product_formula.s",
    "tensors.contract.s", "tensors.contract.flops",
    "tensors.contraction_norm_sq.s", "tensors.symmetrize.s",
    "tensors.max_intermediate_mb",
    "diagnostics.summarize.s", "diagnostics.ks_against_std_normal.s",
    "diagnostics.gaussian_limit_report.self.s",
    "acceptance.criterion_1.s", "acceptance.criterion_2.s",
    "acceptance.criterion_3.s", "acceptance.criterion_4.s",
    "acceptance.criterion_5.s", "reference.s", "rng.streams",
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, counts]
        self._stack = []
        self.normals = 0
        self.streams = 0

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1,
                    0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(idx)
            normals0 = self.normals
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            extra = {"normals": self.normals - normals0}
            if counts is not None:
                extra.update(counts(args, kwargs, result))
            span[4] = extra
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, parent, t0, t1, counts in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": t0, "end": t1,
                                     "counts": counts}) + "\n")


class _CountingGenerator:
    """Forwards to a numpy Generator, counting standard normals drawn."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        self._tracer.normals += 1 if size is None else int(np.prod(size))
        return self._gen.standard_normal(size, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _contract_counts(args, kwargs, result):
    f, g, p = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g"), \
        _arg(args, kwargs, 2, "p")
    d = f.dim if f.dim is not None else (g.dim or 1)
    n, m = f.order, g.order
    return {"flops": 2 * d ** (n - p) * d ** p * d ** (m - p)}


def _symmetrize_counts(args, kwargs, result):
    t = _arg(args, kwargs, 0, "t")
    n = t.order
    # the order >= 3 path materializes an int64 index array of n x d^n
    return {"intermediate_mb": n * t.coeffs.size * 8 / 1e6 if n >= 3 else 0.0}


def _spectral_counts(args, kwargs, result):
    return {"draws": int(_arg(args, kwargs, 1, "n_samples"))}


def _embedding_counts(args, kwargs, result):
    return {"jittered": int(result.jitter > 0.0)}


_COUNTS = {
    "tensors.contract": _contract_counts,
    "tensors.symmetrize": _symmetrize_counts,
    "chaos.sample_integral2_spectral": _spectral_counts,
    "embeddings.build_embedding": _embedding_counts,
}


def install(tracer: Tracer) -> None:
    """Wrap chaoskit's public functions for the rest of the process."""
    pkg = sys.modules["chaoskit"]
    mods = {m: sys.modules[f"chaoskit.{m}"] for m in MODULES}
    wrapped = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                if name == "rng.stream":
                    wrapped[id(fn)] = _traced_stream(tracer, fn)
                else:
                    wrapped[id(fn)] = tracer.wrap(name, fn, _COUNTS.get(name))
    acc = mods["acceptance"]
    run_criterion = acc.run_criterion

    def criterion(number, seed):
        return tracer.wrap(f"acceptance.criterion_{number}",
                           run_criterion)(number, seed)

    wrapped[id(run_criterion)] = criterion
    for mod in (pkg, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(mod, attr, wrapped[id(value)])
    cls = mods["functionals"].EmbeddedFunctional
    for meth in _FUNCTIONAL_METHODS:
        setattr(cls, meth, tracer.wrap(f"functionals.{meth}",
                                       getattr(cls, meth)))
    _install_linalg(tracer, mods.values())


def _traced_stream(tracer, stream):
    def traced(seed, tag):
        tracer.streams += 1
        return _CountingGenerator(stream(seed, tag), tracer)

    traced.__wrapped__ = stream
    return traced


def _install_linalg(tracer, mods):
    """Give chaoskit modules a numpy whose linalg wraps two solvers."""
    linalg = types.ModuleType(np.linalg.__name__)
    linalg.__dict__.update(np.linalg.__dict__)
    for attr in _LINALG:
        setattr(linalg, attr, tracer.wrap(f"linalg.{attr}",
                                          getattr(np.linalg, attr)))
    numpy_view = types.ModuleType(np.__name__)
    numpy_view.__dict__.update(np.__dict__)
    numpy_view.linalg = linalg
    for mod in mods:
        if getattr(mod, "np", None) is np:
            mod.np = numpy_view


# ----------------------------------------------------------- aggregation


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times and counts from the recorded spans.

    A function's time is the sum of its outermost spans (a span nested in
    one of the same name is not counted twice); a self time subtracts the
    spans of the chaoskit calls made directly inside it.
    """
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child_time[s[1]] += dur[i]

    def outermost(i, names):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] in names:
                return False
            p = spans[p][1]
        return True

    times, calls = {}, {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        if outermost(i, (s[0],)):
            times[s[0]] = times.get(s[0], 0.0) + dur[i]

    def group_time(names):
        names = tuple(names)
        return sum(dur[i] for i, s in enumerate(spans)
                   if s[0] in names and outermost(i, names))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                   if s[0] == name)

    def count_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    draws = count_sum("chaos.sample_integral2_spectral", "draws")
    spectral_normals = sum(
        s[4]["normals"] for i, s in enumerate(spans)
        if s[0] == "chaos.sample_integral2_spectral"
        and outermost(i, ("chaos.sample_integral2_spectral",)))
    symm = [s[4]["intermediate_mb"] for s in spans
            if s[0] == "tensors.symmetrize"]
    reference = [s[0] for s in spans if s[0].startswith("reference.")]
    out = {
        "cli.self.s": self_time("cli.main"),
        "chaos.normals_drawn": tracer.normals,
        "chaos.normals_per_draw": spectral_normals / draws if draws else 0.0,
        "functionals.exact.s": group_time(_EXACT),
        "diagnostics.gaussian_limit_report.self.s":
            self_time("diagnostics.gaussian_limit_report"),
        "embeddings.jittered": count_sum("embeddings.build_embedding",
                                         "jittered"),
        "tensors.contract.flops": count_sum("tensors.contract", "flops"),
        "tensors.max_intermediate_mb": max(symm, default=0.0),
        "reference.s": group_time(set(reference)),
        "rng.streams": tracer.streams,
    }
    for name in sorted(times):
        out.setdefault(f"{name}.s", times[name])
        out.setdefault(f"{name}.calls", calls[name])
    for name in NAMED:
        out.setdefault(name, 0)
    return out
