"""Span tracer built from the benchmark's own files.

The tracer wraps each layer's public functions at every name under which
the package's modules import them (``nakasum.moments.gauss_2f1``,
``nakasum.egc.mgf``, ``nakasum.gof.cdf`` ...), records one span per call
(function id, parent span, start, end) in flat in-memory arrays, and
restores the original functions on ``uninstall``.  Self time is derived
afterwards from the spans: a span's duration minus the durations of its
direct children.

Nothing is wrapped while the tracer is not installed, so untraced runs
execute the package exactly as shipped.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> public functions wrapped in that layer
TARGETS = {
    "specfun": ("gauss_2f1", "kummer_1f1", "lauricella_fa"),
    "linalg": ("greens_fit", "eigenvalues_sym", "principal_submatrix_inverse"),
    "moments": ("second_moment_Z", "fourth_moment_Z", "joint_moment_triple",
                "joint_moment_quad", "w_coefficient"),
    "matcher": ("match_parameters",),
    "gammasum": ("mgf", "cdf", "pdf"),
    "egc": ("ber_curve", "outage_curve", "ber_bpsk", "ber_bfsk_noncoherent",
            "outage"),
    "simkit": ("sample_sum", "simulate_egc_ber", "estimate_sum_moments"),
    "gof": ("gof_campaign", "model_envelope_cdf", "ks_test"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS) + ("bench",)
OP_SPAN = "bench.op"

# Monte-Carlo draws requested by one call, from its bound arguments
_DRAWS = {
    "simkit.sample_sum": lambda a: a["n"],
    "simkit.estimate_sum_moments": lambda a: a["n"],
    "simkit.simulate_egc_ber": lambda a: a["n_bits"] * len(a["snr_db_grid"]),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nakasum" or name.startswith("nakasum."))]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.draws = 0
        self.fit_clamp_warnings = 0
        self.fa_fallbacks = 0
        self.errors: dict[tuple[str, str], int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _note_error(self, layer: str, exc: BaseException) -> None:
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                return
        if layer not in seen:
            seen.add(layer)
            key = (layer, type(exc).__name__)
            self.errors[key] = self.errors.get(key, 0) + 1

    def op(self, call):
        """Run one benchmark op inside a root span."""
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, layer: str, name: str, orig):
        fid = len(self.names)
        qual = f"{layer}.{name}"
        self.names.append(qual)
        open_, close, note = self._open, self._close, self._note_error

        if qual in _DRAWS:
            sig = inspect.signature(orig)
            draws_of = _DRAWS[qual]

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.draws += int(draws_of(bound.arguments))
        else:
            before = None

        if qual == "matcher.match_parameters":
            def after(result):
                for flag in result.flags:
                    if flag.startswith("FitClampWarning"):
                        self.fit_clamp_warnings += 1
        else:
            after = None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = open_(fid)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                note(layer, exc)
                raise
            finally:
                close(idx)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = orig.__name__
        return wrapper

    def _replace_everywhere(self, orig, replacement) -> None:
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, orig))

    def install(self) -> None:
        import nakasum.specfun as specfun

        for layer, names in TARGETS.items():
            module = importlib.import_module(f"nakasum.{layer}")
            for name in names:
                orig = getattr(module, name)
                self._replace_everywhere(orig, self._wrap(layer, name, orig))

        # The adaptive F_A fallback is the only caller of scipy's quad in
        # specfun; counting calls at that name counts the fallbacks.
        quad = specfun.quad

        def counted_quad(*args, **kwargs):
            self.fa_fallbacks += 1
            return quad(*args, **kwargs)

        specfun.quad = counted_quad
        self._patched.append((specfun, "quad", quad))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.fid)

    def truncate(self, n: int) -> None:
        """Drop spans recorded after mark ``n``."""
        for arr in (self.fid, self.parent, self.start, self.end):
            del arr[n:]

    # -- analysis --------------------------------------------------------
    def arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return fid, parent, start, end

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, derived from the
        spans; plus per-layer self seconds and parent-child call counts."""
        fid, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=fid.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        incl = np.bincount(fid, weights=dur, minlength=k)
        selft = np.bincount(fid, weights=self_s, minlength=k)
        funcs = {name: {"calls": int(calls[i]), "s": float(incl[i]),
                        "self_s": float(selft[i])}
                 for i, name in enumerate(self.names)}
        layers = {layer: 0.0 for layer in LAYERS}
        for name, rec in funcs.items():
            layers[name.split(".")[0]] += rec["self_s"]
        parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)
        pairs: dict[tuple[str, str], int] = {}
        uniq, counts = np.unique(np.stack([fid, parent_fid]), axis=1,
                                 return_counts=True)
        for (c, p), n in zip(uniq.T, counts):
            if p >= 0:
                pairs[(self.names[p], self.names[c])] = int(n)
        return {"funcs": funcs, "layers": layers, "pairs": pairs,
                "spans": int(fid.size)}

    def save(self, path) -> None:
        fid, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez(path, names=np.asarray(self.names), fid=fid, parent=parent,
                 start=start - t0, end=end - t0)
