"""Spans around the public functions of each layer, for the traced run.

Tracing replaces a public function by a wrapper in every ``faberelast``
module namespace that holds it (and, for map methods, on the class), so
calls made inside ``cli.main`` are timed too.  Nothing inside the package
changes; ``uninstall`` puts the originals back.  Spans are kept in
memory, and ``Tracer.round_metrics`` turns one round of them into the
per-layer metrics.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

#: span name -> (module, attribute); a tuple attribute names a class method
TARGETS = {
    "cli": ("faberelast.cli", "main"),
    "conformal.validate_univalence": ("faberelast.conformal", ("ExteriorMap", "validate_univalence")),
    "conformal.invert": ("faberelast.conformal", ("ExteriorMap", "invert")),
    "faber.build_faber": ("faberelast.faber", "build_faber"),
    "faber.faber_values": ("faberelast.faber", "faber_values"),
    "loading.faber_coefficients": ("faberelast.loading", "faber_coefficients"),
    "loading.eval_u0": ("faberelast.loading", "eval_u0"),
    "solver.solve_full": ("faberelast.solver", "solve_full"),
    "solver.build_y": ("faberelast.solver", "build_y"),
    "solver.solve_block": ("faberelast.solver", "solve_block"),
    "solver.solve_c12": ("faberelast.solver", "solve_c12"),
    "fields.single_layer_exterior": ("faberelast.fields", "single_layer_exterior"),
    "fields.single_layer_interior": ("faberelast.fields", "single_layer_interior"),
    "fields.field_grid": ("faberelast.fields", "field_grid"),
    "fields.write_field_csv": ("faberelast.fields", "write_field_csv"),
    "fields.displacement": ("faberelast.fields", "displacement"),
    "oracle.transmission_residual": ("faberelast.oracle", "transmission_residual"),
    "oracle.equilibrium_residual": ("faberelast.oracle", "equilibrium_residual"),
    "oracle.kelvin_single_layer": ("faberelast.oracle", "kelvin_single_layer"),
}

#: inclusive span totals reported as ``<name>_s``
TIMED = [name for name in TARGETS if name not in ("cli", "fields.field_grid")]
#: spans whose self time (duration minus direct children) is reported
SELF_TIMED = {"cli": "cli.self_s", "fields.field_grid": "fields.field_grid_self_s",
              "library": "library.self_s"}
COUNTS = (
    "conformal.invert_unconverged",
    "faber.table_rows",
    "solver.active_modes",
    "solver.truncation_n",
    "fields.exterior_points",
    "fields.interior_points",
    "fields.csv_bytes",
    "fields.displacement_calls",
    "oracle.kelvin_calls",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count(tracer, name, args, kwargs, result):
    """Work counts taken from a call's arguments and result."""
    c = tracer.counts
    if name == "conformal.invert":
        c["conformal.invert_unconverged"] += int((~result[1]).sum())
    elif name == "faber.build_faber":
        c["faber.table_rows"] += int(_arg(args, kwargs, 1, "n"))
    elif name == "solver.solve_full":
        c["solver.active_modes"] += int((result.s != 0).sum() + (result.t != 0).sum())
        c["solver.truncation_n"] += int(result.order)
    elif name == "fields.single_layer_exterior":
        c["fields.exterior_points"] += int(getattr(_arg(args, kwargs, 4, "w"), "size", 1))
    elif name == "fields.single_layer_interior":
        c["fields.interior_points"] += int(getattr(_arg(args, kwargs, 4, "z"), "size", 1))
    elif name == "fields.write_field_csv":
        c["fields.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "fields.displacement":
        c["fields.displacement_calls"] += 1
    elif name == "oracle.kelvin_single_layer":
        c["oracle.kelvin_calls"] += 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.eval_u0_peak = 0
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span called name."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        peak = name == "loading.eval_u0" and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        try:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
        finally:
            self.stack.pop()
            if peak:
                self.eval_u0_peak = max(self.eval_u0_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        self.spans[index][1:3] = [start, end]
        _count(self, name, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "faberelast" or key.startswith("faberelast.")]
        for name, (modname, attr) in TARGETS.items():
            if isinstance(attr, tuple):
                cls = getattr(sys.modules[modname], attr[0])
                original = getattr(cls, attr[1])
                self._saved.append((cls, attr[1], original))
                setattr(cls, attr[1], self._wrap(name, original))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def round_metrics(self, scale: float) -> dict:
        """Per-layer totals of the spans since the last call, times scaled
        by ``scale``; then reset."""
        total = dict.fromkeys(TIMED, 0.0)
        own = dict.fromkeys(SELF_TIMED, 0.0)
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, children):
            if name in total:
                total[name] += end - start
            if name in own:
                own[name] += end - start - inner
        out = {f"{name}_s": value * scale for name, value in total.items()}
        out.update({SELF_TIMED[name]: value * scale for name, value in own.items()})
        out.update(self.counts)
        out["loading.eval_u0_peak_mb"] = self.eval_u0_peak / 2**20
        self.spans.clear()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.eval_u0_peak = 0
        return out
