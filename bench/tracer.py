"""Layer tracing from outside the program.

``Tracer.install`` rebinds each listed public function, in every
``lorcurv`` module namespace that binds it (``lorcurv.canonical.riemann``
as well as ``lorcurv.curvature.riemann`` and ``lorcurv.riemann``), to a
wrapper that records a span.  Spans nest on a stack; a span's self time is
its duration minus the time its child spans cover.  Self time and call
counts accumulate in memory per function and are read out at the end.
lorcurv's own files are not touched.
"""

from __future__ import annotations

import functools
import sys
import time

#: module -> traced public functions; the metric names are module.function
LAYERS = {
    "metric": ("validate_metric", "orthonormal_frame"),
    "algebra": ("make_family_algebra", "change_basis", "is_automorphism"),
    "curvature": ("riemann", "ricci_tensor", "levi_civita", "sectional",
                  "curvature_report"),
    "oneill": ("classify_self_adjoint",),
    "canonical": ("canonical_form", "equivalent", "constant_curvature_class"),
    "atlas": ("emit_tables", "cross_check", "closed_form_report"),
}
NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)


class Tracer:
    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(NAMES, 0)
        self.calls = dict.fromkeys(NAMES, 0)
        self._stack: list[int] = []       # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self_ns[name] += duration - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += duration
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lorcurv" or k.startswith("lorcurv."))]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"lorcurv.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def merge(self, self_ns: dict, calls: dict) -> None:
        for name in NAMES:
            self.self_ns[name] += self_ns.get(name, 0)
            self.calls[name] += calls.get(name, 0)
