"""In-memory spans around calls into each torsionlab layer.

The program itself is not changed: :meth:`Tracer.installed` swaps the
layer entry points below for timing wrappers in every loaded ``torsionlab``
module (modules import each other's functions by name, so each binding is
replaced), and restores the originals on exit.  Spans are kept in memory;
:func:`write_spans` writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap and the self
times of all spans of an invocation add up to the duration of its root span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# span name -> (module path, attribute path) of the wrapped callable
ENTRY_POINTS = {
    "manifest.load": ("torsionlab.manifest", "load_manifest"),
    "expr.sample": ("torsionlab.expr", "sample_points"),
    "expr.eval": ("torsionlab.expr", "eval_many"),
    "expr.diff": ("torsionlab.expr", "diff"),
    "fields.jet": ("torsionlab.fields", "OperatorField.jet_many"),
    "fields.tower": ("torsionlab.fields", "is_vanishing"),
    "spectral.spectrum": ("torsionlab.spectral", "spectrum_at"),
    "spectral.regularity": ("torsionlab.spectral", "regularity_check"),
    "spectral.minpoly": ("torsionlab.spectral", "minimal_poly_degree_at"),
    "algebra.check": ("torsionlab.algebra", "check_algebra"),
    "algebra.cyclic": ("torsionlab.algebra", "cyclic_basis"),
    "charts.integrate": ("torsionlab.charts", "integrate_exact_one_form"),
    # not exported by the package, but it is what ``blockdiag`` calls
    "charts.pushforward": ("torsionlab.charts", "pushforward_many"),
    "charts.detect": ("torsionlab.charts", "detect_blocks"),
}
ROOT = "cli.main"
SVD = "spectral.svd"


def level1_flops(n: int) -> int:
    """Operation count of the level-1 torsion at one point (``nijenhuis_from_jets``):
    four rank-4 contractions over one index, three sums and the skew part."""
    return 8 * n ** 4 + 5 * n ** 3


def level_up_flops(n: int) -> int:
    """Operation count of one level-up step at one point (``level_up_many``):
    one matrix square, seven rank-4 contractions, three sums and the skew part."""
    return 14 * n ** 4 + 7 * n ** 3


def tower_flops(n: int, level: int, points: int) -> int:
    """Computed flops of one ``is_vanishing`` call, which builds the tower
    from level 1 up to ``level`` at every sample point."""
    return points * (level1_flops(n) + (level - 1) * level_up_flops(n))


class Tracer:
    """Spans of one traced pass: ``[name, invocation, parent, start, end]``."""

    def __init__(self, origin: float = 0.0):
        self.origin = origin
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._spectral_depth = 0
        self.invocation = 0
        self.flops = 0
        self.combos = 0

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        spectral = name.startswith("spectral.")

        def traced(*args, **kwargs):
            # a recursive call stays inside its outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            rec = [name, self.invocation, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            self._spectral_depth += spectral
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                self._spectral_depth -= spectral

        return traced

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a new invocation."""
        self.invocation += 1
        return self.wrap(ROOT, fn)(*args)

    @contextmanager
    def installed(self):
        """Swap every entry point for its traced wrapper; restore on exit."""
        import torsionlab.algebra
        import torsionlab.fields

        bind_tower = inspect.signature(torsionlab.fields.is_vanishing).bind
        bind_check = inspect.signature(torsionlab.algebra.check_algebra).bind

        def count_tower(args, kwargs):
            b = bind_tower(*args, **kwargs).arguments
            self.flops += tower_flops(b["a"].chart.dim, b["m"], b["n_pts"])

        def count_combos(args, kwargs):
            self.combos += bind_check(*args, **kwargs).arguments["n_random_combos"]

        hooks = {"fields.tower": count_tower, "algebra.check": count_combos}
        undo = []
        try:
            for name, (modname, attr) in ENTRY_POINTS.items():
                owner = sys.modules[modname]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
                new = self.wrap(name, orig, hooks.get(name))
                if path:  # a method: patch the class only
                    undo.append((owner, leaf, orig))
                    setattr(owner, leaf, new)
                    continue
                for mname, mod in list(sys.modules.items()):
                    if mname.split(".")[0] == "torsionlab" and getattr(mod, leaf, None) is orig:
                        undo.append((mod, leaf, orig))
                        setattr(mod, leaf, new)
            svd = np.linalg.svd
            undo.append((np.linalg, "svd", svd))
            traced_svd = self.wrap(SVD, svd)

            def svd_in_spectral(*args, **kwargs):
                if self._spectral_depth:
                    return traced_svd(*args, **kwargs)
                return svd(*args, **kwargs)

            np.linalg.svd = svd_in_spectral
            yield self
        finally:
            for owner, leaf, orig in reversed(undo):
                setattr(owner, leaf, orig)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and total ``self`` time in seconds."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, _, _, start, end) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "self": 0.0})
            t["calls"] += 1
            t["self"] += end - start - child[idx]
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass layer metrics from the spans of one traced pass."""
    t = tracer.totals()

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0)

    tower_s = get("fields.tower", "self")
    spectra = get("spectral.spectrum", "calls")
    return {
        "manifest.load_s": get("manifest.load", "self"),
        "manifest.load_calls": get("manifest.load", "calls"),
        "expr.sample_s": get("expr.sample", "self"),
        "expr.sample_calls": get("expr.sample", "calls"),
        "expr.eval_s": get("expr.eval", "self"),
        "expr.eval_calls": get("expr.eval", "calls"),
        "expr.diff_s": get("expr.diff", "self"),
        "expr.diff_calls": get("expr.diff", "calls"),
        "fields.jet_s": get("fields.jet", "self"),
        "fields.jet_calls": get("fields.jet", "calls"),
        "fields.verdict_calls": get("fields.tower", "calls"),
        "fields.tower_s": tower_s,
        "fields.tower_gflop_s": tracer.flops / tower_s / 1e9 if tower_s else 0.0,
        "spectral.spectrum_s": get("spectral.spectrum", "self"),
        "spectral.spectrum_calls": spectra,
        "spectral.regularity_s": get("spectral.regularity", "self"),
        "spectral.minpoly_s": get("spectral.minpoly", "self"),
        "spectral.svd_s": get(SVD, "self"),
        "spectral.svd_calls": get(SVD, "calls"),
        "spectral.svd_per_spectrum": get(SVD, "calls") / spectra if spectra else 0.0,
        "algebra.check_s": get("algebra.check", "self"),
        "algebra.combos": tracer.combos,
        "algebra.cyclic_s": get("algebra.cyclic", "self"),
        "charts.integrate_s": get("charts.integrate", "self"),
        "charts.pushforward_s": get("charts.pushforward", "self"),
        "charts.detect_s": get("charts.detect", "self"),
        "cli.self_s": get(ROOT, "self"),
    }


# metrics whose sum is the traced time of all invocations of a pass
SELF_TIME_METRICS = ("manifest.load_s", "expr.sample_s", "expr.eval_s", "expr.diff_s",
                     "fields.jet_s", "fields.tower_s", "spectral.spectrum_s",
                     "spectral.regularity_s", "spectral.minpoly_s", "spectral.svd_s",
                     "algebra.check_s", "algebra.cyclic_s", "charts.integrate_s",
                     "charts.pushforward_s", "charts.detect_s", "cli.self_s")


def write_spans(path: Path, tracer: Tracer) -> None:
    """One JSON object per line: invocation, span id, parent id (-1 at the
    root), name, and start/end in seconds from the tracer's origin."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, inv, parent, start, end) in enumerate(tracer.spans):
            fh.write(json.dumps({"inv": inv, "id": idx, "parent": parent, "name": name,
                                 "start": start - tracer.origin,
                                 "end": end - tracer.origin}) + "\n")
