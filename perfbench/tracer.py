"""Per-layer tracing of ovalab from outside the package.

``Tracer.installed()`` replaces public names, as the calling modules see
them, with wrappers that record a span (name, start, end, parent span,
outcome) in memory.  Nothing inside the package changes.  Self time of a
span is its duration minus the time of its direct child spans; the
per-layer metrics add these up per span name and divide by the number of
traced passes.
"""

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter

from ovalab import diagnostics, evolve, grid, recenter, spectral
from ovalab.errors import StepSizeError

# (owner, attribute, span name).  A function imported into several
# modules is wrapped under every alias, because each module looks the
# name up in its own namespace.
TARGETS = [
    (grid.PolarGrid, "radial_derivative", "grid.radial_derivative"),
    *[(m, "diff_phi_fft", "grid.diff_phi_fft")
      for m in (grid, evolve, spectral, diagnostics)],
    *[(m, "angular_lowpass", "grid.angular_lowpass") for m in (grid, evolve)],
    *[(m, "build_grid", "grid.build_grid") for m in (grid, evolve)],
    *[(m, "load_field", "grid.load_field") for m in (grid, evolve)],
    (evolve, "step", "evolve.step"),
    (evolve, "find_extinction", "evolve.find_extinction"),
    (evolve, "rhs_renormalized_Y", "evolve.tip.rhs_renormalized_Y"),
    (evolve.TipField, "from_profile", "evolve.tip.from_profile"),
    (evolve.TipField, "load", "evolve.TipField.load"),
    (evolve, "renormalize", "evolve.renormalize"),
    (evolve.FlowHistory, "load_dir", "evolve.FlowHistory.load_dir"),
    (evolve.FlowHistory, "state_at", "evolve.FlowHistory.state_at"),
    *[(m, "get_basis", "spectral.get_basis") for m in (spectral, recenter)],
    (spectral, "EigenBasis", "spectral.EigenBasis"),
    (spectral, "project", "spectral.project"),
    (spectral, "spectral_report", "spectral.spectral_report"),
    (recenter, "solve_psi", "recenter.solve_psi"),
    (recenter, "psi2", "recenter.psi2"),
    (recenter, "psi4", "recenter.psi4"),
    (recenter, "transform_profile", "recenter.transform_profile"),
    (recenter, "transform_full", "recenter.transform_full"),
    *[(diagnostics, fn, f"diagnostics.{fn}") for fn in (
        "asymptotics_report", "collar_deviation", "cylindrical_estimate",
        "concavity_margin", "huisken_density")],
]

TIP = ("evolve.tip.rhs_renormalized_Y", "evolve.tip.from_profile")
SOLVE_ERRORS = ("CoverageError", "DegeneracyError", "BudgetError")

# span name -> which of its call count and self time are reported
TIMED = {
    "grid.radial_derivative": ("calls", "self"),
    "grid.diff_phi_fft": ("calls", "self"),
    "grid.angular_lowpass": ("calls", "self"),
    "grid.build_grid": ("calls", "self"),
    "grid.load_field": ("calls", "self"),
    "evolve.step": ("calls", "self"),
    "evolve.find_extinction": ("calls",),
    "evolve.renormalize": ("calls", "self"),
    "evolve.FlowHistory.load_dir": ("self",),
    "evolve.FlowHistory.state_at": ("calls", "self"),
    "spectral.get_basis": ("calls",),
    "spectral.project": ("calls", "self"),
    "spectral.spectral_report": ("self",),
    "recenter.solve_psi": ("calls", "self"),
    "recenter.transform_profile": ("self",),
    "recenter.transform_full": ("self",),
    "diagnostics.asymptotics_report": ("self",),
    "diagnostics.collar_deviation": ("self",),
    "diagnostics.cylindrical_estimate": ("self",),
    "diagnostics.concavity_margin": ("self",),
    "diagnostics.huisken_density": ("self",),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # span: [name, start, end, parent index, error class, note]
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "evolve.find_extinction":
                span[5] = out.steps
            elif name == "grid.load_field":
                span[5] = os.path.getsize(args[0])
            elif name == "evolve.TipField.load":
                span[5] = os.path.getsize(args[1])  # args[0] is the class
            return out

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, error."""
        with open(path, "w") as fh:
            for name, start, end, parent, error, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, error]) + "\n")

    def layer_metrics(self, passes, traced_s, clock=None):
        """Per-layer metrics per traced pass; self time as a percentage of
        traced_s, the seconds spent inside the traced passes' calls.  The
        chunks of a running ``hostspeed.HostClock`` are taken out of every
        span they fell in."""
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        for k, (_, start, end, parent, _, _) in enumerate(self.spans):
            dur[k] = end - start - (clock.paused(start, end) if clock is not None else 0.0)
            if parent >= 0:
                child[parent] += dur[k]
        calls, self_s = {}, {}
        for k, span in enumerate(self.spans):
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + dur[k] - child[k]

        def per_pass(x):
            return x / passes

        def pct(seconds):
            return 100.0 * seconds / traced_s

        m = {}
        for name, kinds in TIMED.items():
            if "calls" in kinds:
                m[f"{name}.calls"] = (per_pass(calls.get(name, 0)), "count")
            if "self" in kinds:
                m[f"{name}.self_pct"] = (pct(self_s.get(name, 0.0)), "%")

        steps = [s for s in self.spans if s[0] == "evolve.step"]
        rejected = sum(s[4] == StepSizeError.__name__ for s in steps)
        m["evolve.step.rejected"] = (per_pass(rejected), "count")
        m["evolve.step.accepted_ratio"] = (
            (len(steps) - rejected) / len(steps) if steps else 0.0, "1")

        # step calls made by the bisection = all step calls inside
        # find_extinction minus its forward march and the rejections
        march = sum(s[5] for s in self.spans if s[0] == "evolve.find_extinction")
        inside = _descendant_counts(self.spans, "evolve.find_extinction",
                                    "evolve.step")
        m["evolve.find_extinction.bisect_steps"] = (
            per_pass(inside["count"] - inside["errors"] - march), "count")

        tip_self = sum(self_s.get(name, 0.0) for name in TIP)
        m["evolve.tip.self_pct"] = (pct(tip_self), "%")
        tip_steps = {s[3] for s in self.spans
                     if s[0] == "evolve.tip.rhs_renormalized_Y"}
        substeps = calls.get("evolve.tip.rhs_renormalized_Y", 0) / 2
        m["evolve.tip.substeps_per_step"] = (
            substeps / len(tip_steps) if tip_steps else 0.0, "1")
        step_idx = {k for k, s in enumerate(self.spans) if s[0] == "evolve.step"}
        tip_in_step = sum(dur[k] for k, s in enumerate(self.spans)
                          if s[0] in TIP and s[3] in step_idx)
        step_total = sum(dur[k] for k in step_idx)
        m["evolve.tip.step_share_pct"] = (
            100.0 * tip_in_step / step_total if step_total else 0.0, "%")

        builds = calls.get("spectral.EigenBasis", 0)
        lookups = calls.get("spectral.get_basis", 0)
        m["spectral.basis_builds"] = (per_pass(builds), "count")
        m["spectral.basis_hit_ratio"] = (
            1.0 - builds / lookups if lookups else 0.0, "1")

        solves = [s for s in self.spans if s[0] == "recenter.solve_psi"]
        for err in SOLVE_ERRORS:
            m[f"recenter.solve_psi.failed.{err}"] = (
                per_pass(sum(s[4] == err for s in solves)), "count")
        m["recenter.psi_evals"] = (
            per_pass(calls.get("recenter.psi2", 0) + calls.get("recenter.psi4", 0)),
            "count")
        m["grid.io_bytes"] = (
            per_pass(sum(s[5] for s in self.spans if s[0] in (
                "grid.load_field", "evolve.TipField.load"))), "bytes")
        m["trace.spans"] = (per_pass(n), "count")
        return m


def _descendant_counts(spans, ancestor, name):
    """Count spans called `name` below a span called `ancestor`, and how
    many of them raised."""
    inside = {}
    out = {"count": 0, "errors": 0}
    for k, span in enumerate(spans):
        parent = span[3]
        inside[k] = span[0] == ancestor or (parent >= 0 and inside[parent])
        if span[0] == name and parent >= 0 and inside[parent]:
            out["count"] += 1
            out["errors"] += span[4] is not None
    return out
