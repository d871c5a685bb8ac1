"""Outside-in span tracer for the ntkalign benchmark.

The package imports with ``from .x import y``, so one public function has a
separate binding in every module that imports it.  ``Tracer.installed()``
replaces the function at each of those bindings with a timing wrapper and
puts the originals back on exit; the wrappers record one span per call
(name, start, end, parent span) in memory.  Nothing inside ``src/`` is
edited: every span is taken from outside the package.

Counters marked (c) in layers.py are derived from array shapes at
the call boundary (bytes of a result, quadrature pairs times points
squared, n**3 of an eigendecomposition); they are not measured traffic.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> modules (under ``ntkalign.``) that must bind the function.
# The first module defines it.  A missing binding fails the traced run, so
# a rename cannot silently drop a layer metric.  Bindings found beyond
# these (the package ``__init__`` re-exports, new import sites) are wrapped
# too.
SPANS = {
    "cli.main": ("cli",),
    "dataio.load_csv": ("dataio", "cli"),
    "dataio.save_csv": ("dataio", "cli"),
    "shiftops.cross_covariance": ("shiftops", "cli"),
    "shiftops.covariance": ("shiftops", "cli"),
    "hermite.gauss_hermite_rule": ("hermite", "ntk"),
    "hermite.expansion_constants": ("hermite", "alignment"),
    "ntk.z_vectors": ("ntk", "alignment"),
    "ntk.expectation_E_quadrature": ("ntk", "alignment"),
    "ntk.expectation_E_first_layer": ("ntk", "alignment"),
    "ntk.conjugated_power_sum": ("ntk",),
    "ntk.gnn_infinite_ntk": ("ntk", "cli"),
    "ntk.filter_ntk": ("ntk", "cli", "training", "alignment"),
    "models.gnn2_forward": ("models", "training"),
    "models.gnn2_jacobian": ("models", "training"),
    "models.filter_forward": ("models", "training"),
    "models.filter_jacobian": ("models", "training", "ntk"),
    "training.train": ("training", "cli"),
    "training.predicted_param_movement": ("training", "cli"),
    "training.compare_gso": ("training", "cli"),
    "alignment.alignment_report": ("alignment", "cli"),
    "alignment.check_gnn_alignment_lower_bound": ("alignment", "cli"),
    "alignment.check_first_layer_alignment_lower_bound": ("alignment", "cli"),
}

# Spans on class constructors: the class stays bound everywhere (isinstance
# and annotations keep working) and only its ``__init__`` is wrapped.
CLASS_SPANS = {"core.NtkMatrix": ("core", "NtkMatrix")}

EIG_FUNCTIONS = ("eigh", "eigvalsh")
FORWARD_SPANS = ("models.gnn2_forward", "models.filter_forward")


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _pair_evals(fn, args, kwargs, result) -> dict:
    arguments = _arguments(fn, args, kwargs)
    nm = arguments["z"].matrix.shape[0]
    return {"pair_evals": nm * (nm + 1) // 2 * arguments["n_points"] ** 2}


def _result_bytes(fn, args, kwargs, result) -> dict:
    return {"bytes": result.nbytes}


def _matrix_bytes(fn, args, kwargs, result) -> dict:
    return {"bytes": _arguments(fn, args, kwargs)["matrix"].nbytes}


def _saved_bytes(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arguments(fn, args, kwargs)["path"])}


def _epochs(fn, args, kwargs, result) -> dict:
    return {"epochs": _arguments(fn, args, kwargs)["cfg"].epochs}


# span name -> function of (original, args, kwargs, result) giving the
# computed counters for one call.
MEASURES = {
    "ntk.expectation_E_quadrature": _pair_evals,
    "ntk.expectation_E_first_layer": _pair_evals,
    "models.gnn2_jacobian": _result_bytes,
    "core.NtkMatrix": _matrix_bytes,
    "dataio.save_csv": _saved_bytes,
    "training.train": _epochs,
}


class MissingBindingError(RuntimeError):
    """A binding listed in SPANS no longer exists in the package."""


class Tracer:
    """Wraps the package's public functions; keeps spans and counters.

    ``min_eig_side`` is the smallest matrix side at which a numpy
    ``eigh``/``eigvalsh`` call counts toward ``linalg.eig_*``.
    """

    def __init__(self, min_eig_side: int):
        self.min_eig_side = min_eig_side
        self.spans = []  # [name, start, end, parent index]
        self.counters = Counter()  # (span name, counter) -> total
        self._stack = []

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if measure is not None:
                for key, value in measure(fn, args, kwargs, result).items():
                    self.counters[name, key] += value
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _count_eig(self, fn):
        def counted(a, *args, **kwargs):
            side = a.shape[-1]
            if side >= self.min_eig_side:
                self.counters["linalg", "eig_calls"] += 1
                self.counters["linalg", "eig_n3"] += side**3
            return fn(a, *args, **kwargs)

        return counted

    def _patches(self):
        """(owner, attribute, original, replacement) for every binding."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "ntkalign" or name.startswith("ntkalign.")
        }
        patches = []
        for span, required in SPANS.items():
            defining = modules.get("ntkalign." + required[0])
            attr = span.split(".", 1)[1]
            original = getattr(defining, attr, None)
            if original is None:
                raise MissingBindingError(f"ntkalign.{required[0]}.{attr} does not exist")
            for mod_name in required:
                module = modules.get("ntkalign." + mod_name)
                if getattr(module, attr, None) is not original:
                    raise MissingBindingError(
                        f"ntkalign.{mod_name} no longer binds {span}; update SPANS"
                    )
            wrapper = self._wrap(span, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        for span, (mod_name, cls_name) in CLASS_SPANS.items():
            cls = getattr(modules.get("ntkalign." + mod_name), cls_name, None)
            if cls is None:
                raise MissingBindingError(f"ntkalign.{mod_name}.{cls_name} does not exist")
            init = cls.__dict__["__init__"]
            patches.append((cls, "__init__", init, self._wrap(span, init)))
        import numpy.linalg

        for name in EIG_FUNCTIONS:
            original = getattr(numpy.linalg, name)
            patches.append((numpy.linalg, name, original, self._count_eig(original)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        patches = self._patches()
        try:
            for owner, key, _, replacement in patches:
                setattr(owner, key, replacement)
            yield self
        finally:
            for owner, key, original, _ in reversed(patches):
                setattr(owner, key, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and counters.

        Self time is the span's duration minus its direct children's.
        ``forward_calls`` counts forward spans that run under a
        ``training.train`` span.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(Counter)
        for index, (name, start, end, parent) in enumerate(self.spans):
            stats = out[name]
            stats["calls"] += 1
            stats["total_s"] += end - start
            stats["self_s"] += end - start - child_time[index]
            if name in FORWARD_SPANS and self._under_train(parent):
                out["training.train"]["forward_calls"] += 1
        for (name, key), value in self.counters.items():
            out[name][key] += value
        return {name: dict(stats) for name, stats in out.items()}

    def _under_train(self, index: int) -> bool:
        while index >= 0:
            if self.spans[index][0] == "training.train":
                return True
            index = self.spans[index][3]
        return False

    def write_spans(self, path) -> None:
        """One CSV line per span: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")
