"""In-memory span tracer and the counting wrappers it installs on cloaksim.

The wrappers live here, in benchmark code, and are installed by patching
module globals for the duration of one traced round; nothing under ``src/``
knows about them.  Each wrapped call pushes a frame on a stack, so a span's
self time is its duration minus the time of the calls made inside it.

Calls that happen hundreds of thousands of times per round (the Bessel
ladder, quadrature integrands, profile evaluations, angular bases, the
half-space field) are aggregated per name instead of being kept as span
records; their time still counts as child time of the span that encloses
them.  ``ScaledComplex`` arithmetic is counted, not timed.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

from cloaksim import (cli, fields, geometry, halfspace, harmonics, manifest,
                      modal, quadrature, specfun, weak_limit)
from cloaksim.scaled import ScaledComplex

_SCALED_METHODS = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                   "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "conjugate")


class Tracer:
    """Spans and counters of one traced round.

    ``spans`` holds (span_id, parent_id, name, start_ns, end_ns, op_id)
    tuples; ``totals`` maps a name to [calls, inclusive_ns, self_ns];
    ``counts`` holds the plain counters.
    """

    def __init__(self):
        self.spans = []
        self.totals = {}
        self.counts = {"scaled.ops": 0, "specfun.ladder_orders": 0,
                       "quadrature.final_pass_evals": 0,
                       "manifest.bytes_out": 0}
        self.ops = []  # (op_id, label)
        self._stack = []  # frames: [start_ns, child_ns, span_id]
        self._next_id = 0
        self._op_id = 0
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _parent_id(self):
        return self._stack[-1][2] if self._stack else None

    def call(self, name, record, fn, *args, **kwargs):
        if record:
            self._next_id += 1
            sid = self._next_id
        else:
            sid = self._parent_id()
        parent = self._parent_id()
        frame = [perf_counter_ns(), 0, sid]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            dur = end - frame[0]
            if self._stack:
                self._stack[-1][1] += dur
            tot = self.totals.setdefault(name, [0, 0, 0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[1]
            if record:
                self.spans.append((sid, parent, name, frame[0], end,
                                   self._op_id))

    def probe(self, op):
        """Traced rounds take no speed probes."""

    def run_op(self, label, fn):
        """Run fn() as one op; returns its value."""
        self._op_id += 1
        self.ops.append((self._op_id, label))
        return self.call("op", True, fn)

    def inclusive_s(self, name):
        return self.totals.get(name, [0, 0, 0])[1] * 1e-9

    def calls(self, name):
        return self.totals.get(name, [0, 0, 0])[0]

    # -- wrapper installation -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr, name, record=True, bindings=()):
        """Replace owner.attr (and the same object bound by name in
        ``bindings``) with a timed wrapper."""
        orig = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            return self.call(name, record, orig, *args, **kwargs)

        self._patch(owner, attr, wrapper)
        for module in bindings:
            self._patch(module, attr, wrapper)

    def install(self):
        """Patch every layer boundary the benchmark measures."""
        tr = self
        counts = self.counts

        orig_ladder = specfun.bessel_ladder

        def bessel_ladder(n_max, t):
            counts["specfun.ladder_orders"] += n_max + 1
            return tr.call("specfun.bessel_ladder", False, orig_ladder,
                           n_max, t)

        self._patch(specfun, "bessel_ladder", bessel_ladder)

        # quadrature: passes are gauss_legendre calls; the evaluations of
        # the last pass of each integral are the useful ones
        passes = []  # per open integral: [evals, evals at last pass start]
        orig_gl = quadrature.gauss_legendre

        def gauss_legendre(npts):
            if passes:
                passes[-1][1] = passes[-1][0]
            return tr.call("quadrature.gauss_legendre", False, orig_gl, npts)

        self._patch(quadrature, "gauss_legendre", gauss_legendre)
        orig_panels = quadrature.integrate_panels

        def integrate_panels(f, breakpoints, *args, **kwargs):
            state = [0, 0]

            def integrand(x):
                state[0] += 1
                return tr.call("quadrature.integrand", False, f, x)

            passes.append(state)
            try:
                return tr.call("quadrature.integrate_panels", True,
                               orig_panels, integrand, breakpoints, *args,
                               **kwargs)
            finally:
                passes.pop()
                counts["quadrature.final_pass_evals"] += state[0] - state[1]

        self._patch(quadrature, "integrate_panels", integrate_panels)
        self._patch(halfspace, "integrate_panels", integrate_panels)

        self._wrap(modal, "transfer_coeffs", "modal.transfer_coeffs")
        self._wrap(modal, "solve_mode", "modal.solve_mode")
        self._wrap(modal, "solve_source", "modal.solve_source",
                   bindings=(weak_limit,))
        self._wrap(modal, "limit_coeffs", "modal.limit_coeffs",
                   bindings=(weak_limit,))

        for attr in ("pairing_interior", "pairing_exterior_normal",
                     "predicted_limit", "energy_integral"):
            self._wrap(weak_limit, attr, f"weak_limit.{attr}")

        # profile callables are made by the two factories; wrap what they
        # return so every evaluation of phi or dphi is counted and timed
        def traced_profile(f):
            return lambda r: tr.call("weak_limit.profile", False, f, r)

        cls = weak_limit.RadialTestFunction
        for attr in ("polynomial_bump", "cubic_spline"):
            factory = getattr(cls, attr)

            def traced_factory(*args, _factory=factory, **kwargs):
                made = _factory(*args, **kwargs)
                return cls({mode: tuple(traced_profile(f) for f in pair)
                            for mode, pair in made.profiles.items()})

            self._patch(cls, attr, staticmethod(traced_factory))

        self._wrap(fields, "eval_physical", "fields.eval_physical")
        self._wrap(fields, "eval_virtual_exterior",
                   "fields.eval_virtual_exterior")
        self._wrap(harmonics, "angular_basis", "harmonics.angular_basis",
                   record=False, bindings=(fields,))
        self._wrap(geometry, "pushforward_field",
                   "geometry.pushforward_field")

        self._wrap(halfspace, "limit_study", "halfspace.limit_study")
        self._wrap(halfspace, "eval_H", "halfspace.eval_H", record=False)

        orig_write_csv = manifest.write_csv

        def write_csv(path, header, rows):
            tr.call("manifest.write_csv", True, orig_write_csv, path,
                    header, rows)
            counts["manifest.bytes_out"] += os.path.getsize(path)

        self._patch(manifest, "write_csv", write_csv)
        self._patch(cli, "write_csv", write_csv)
        orig_write = manifest.RunManifest.write

        def write(manifest_self, path):
            tr.call("manifest.RunManifest.write", True, orig_write,
                    manifest_self, path)
            counts["manifest.bytes_out"] += os.path.getsize(path)

        self._patch(manifest.RunManifest, "write", write)
        self._wrap(cli, "main", "cli.main")

        for attr in _SCALED_METHODS:
            orig = vars(ScaledComplex)[attr]

            def counted(*args, _orig=orig):
                counts["scaled.ops"] += 1
                return _orig(*args)

            self._patch(ScaledComplex, attr, counted)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)



class NullTracer:
    """Stand-in used by untraced rounds: ops run directly."""

    def probe(self, op):
        pass

    def run_op(self, label, fn):
        return fn()

    def install(self):
        pass

    def uninstall(self):
        pass
