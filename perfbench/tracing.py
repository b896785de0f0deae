"""Spans around calls into hypfluct's layers, installed from outside the package.

A traced round replaces each layer function by a timing wrapper at the name
its callers look it up by (``functionals.inverse_cdf``, not
``sampling.inverse_cdf``, since ``simulate_surface`` calls the name it
imported).  Each span records its name, start, end, parent and the points
the call works on; a layer's self time is its spans' duration minus the part
covered by their child spans.  A lookup name that a later version of
hypfluct no longer has is skipped, and its layer reads 0 calls.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import oracles


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(i, name):
    return lambda args, kwargs: float(np.size(_arg(args, kwargs, i, name)))


def _surface_points(args, kwargs):
    cfg = _arg(args, kwargs, 0, "config")
    n = _arg(args, kwargs, 1, "n_replicates")
    return n * oracles.expected_count(cfg.d, cfg.lam, cfg.R, cfg.intensity_multiplier)


def _limit_points(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    return _arg(args, kwargs, 1, "n") * oracles.expected_jumps(spec.d, spec.rate, spec.T0)


# layer name, lookup sites (module, attribute), points of one call (None: no
# point count, the layer reports calls and self time only)
LAYERS = (
    ("functionals.simulate_surface", (("functionals", "simulate_surface"),), _surface_points),
    ("sampling.make_rng", (("functionals", "make_rng"), ("limitlaw", "make_rng")), None),
    ("sampling.inverse_cdf", (("functionals", "inverse_cdf"),), _size(1, "p")),
    ("kernels.section_volumes", (("kernels", "section_volumes"),), _size(0, "s")),
    ("hyperbolic.log_intersection_volume", (("functionals", "log_intersection_volume"),),
     lambda args, kwargs: 1.0),
    ("kernels.signed_sums", (("kernels", "signed_sums"),), _size(0, "vol")),
    ("functionals.cumulant_integral", (("functionals", "cumulant_integral"),), None),
    ("limitlaw.limit_law_spec", (("limitlaw", "limit_law_spec"),), None),
    ("limitlaw.sample_limit", (("limitlaw", "sample_limit"),), _limit_points),
    ("kernels.zeta_increment_sums", (("kernels", "zeta_increment_sums"),), _size(0, "h_vals")),
    ("limitlaw.characteristic_function", (("limitlaw", "characteristic_function"),),
     _size(1, "t")),
    ("limitlaw.cdf_via_inversion", (("limitlaw", "cdf_via_inversion"),), _size(1, "x_grid")),
)


def metric_names():
    """The per-layer metric names and units, in report order."""
    out = []
    for layer, _, points in LAYERS:
        out.append((f"{layer}.calls", "count"))
        if points is not None:
            out.append((f"{layer}.points", "count"))
        out.append((f"{layer}.self_s", "s"))
        if points is not None:
            out.append((f"{layer}.points_per_s", "1/s"))
    return out + [("tracing.overhead_s", "s")]


class Tracer:
    """Spans kept in flat arrays; the open spans form a stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.points = array("d")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def open(self, name: str, points: float = 0.0) -> int:
        i = len(self.start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(points)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn, points):
        def traced(*args, **kwargs):
            i = self.open(layer, points(args, kwargs) if points else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer at its lookup sites; restore the originals on exit."""
        saved = []
        try:
            for layer, sites, points in LAYERS:
                for module, attr in sites:
                    mod = importlib.import_module(f"hypfluct.{module}")
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        continue
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(layer, fn, points))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def arrays(self):
        return (np.asarray(self.name, dtype=np.int64), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.points), np.asarray(self.start), np.asarray(self.end))

    def self_times(self):
        """Duration of each span minus the durations of its children."""
        _, parent, _, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def problems(self) -> list:
        """Consistency of the span tree; empty when it holds."""
        _, parent, _, start, end = self.arrays()
        if self._stack:
            return ["spans left open"]
        if not np.all(end >= start):
            return ["span ends before it starts"]
        nested = parent >= 0
        p = parent[nested]
        if np.any(p >= np.flatnonzero(nested)):
            return ["parent opened after its child"]
        if np.any(start[nested] < start[p]) or np.any(end[nested] > end[p]):
            return ["child span outside its parent"]
        top = float(np.sum((end - start)[~nested]))
        total_self = float(np.sum(self.self_times()))
        if abs(total_self - top) > 1e-9 * top + 1e-9:
            return [f"self times sum to {total_self!r}, top-level spans to {top!r}"]
        return []

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer calls, points and self time per traced round."""
        name, _, points, _, _ = self.arrays()
        self_t = self.self_times()
        out = {}
        for layer, _, has_points in LAYERS:
            sel = name == self._ids[layer] if layer in self._ids else np.zeros(name.shape, bool)
            self_s = float(np.sum(self_t[sel])) / rounds
            out[f"{layer}.calls"] = np.count_nonzero(sel) / rounds
            if has_points is not None:
                pts = float(np.sum(points[sel])) / rounds
                out[f"{layer}.points"] = pts
            out[f"{layer}.self_s"] = self_s
            if has_points is not None:
                out[f"{layer}.points_per_s"] = pts / self_s if self_s > 0.0 else 0.0
        return out

    def save(self, path) -> None:
        name, parent, points, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            points=points, start=start, end=end,
                            self_s=self.self_times())
