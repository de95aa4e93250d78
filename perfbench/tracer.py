"""Per-layer spans and counters, recorded from outside the program.

Each traced function is replaced by a timing wrapper at every module that
binds it (``lossqfi.optimize.qfi_of_state`` as well as
``lossqfi.estimation.qfi_of_state``), so calls are seen whichever module the
caller looked the name up in. A layer's self time is the duration of its
spans minus the part covered by the wrapped calls made inside them. Calls are
also counted against the innermost enclosing *owner* span (an optimizer or
the region map), which gives the evaluation and fallback counts.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, function) for every traced layer
LAYERS = [
    ("fock", "displaced_squeezed_vacuum"),
    ("fock", "hermitian_eig"),
    ("channel", "evolve"),
    ("channel", "drho_dphi"),
    ("estimation", "qfi_of_state"),
    ("estimation", "qfi"),
    ("probes", "build_probe"),
    ("probes", "qutrit_coords"),
    ("optimize", "optimize_superposition"),
    ("optimize", "optimize_qutrit"),
    ("optimize", "optimize_gaussian"),
    ("degauss", "region_map"),
    ("degauss", "photon_subtract"),
    ("degauss", "truncate_levels"),
    ("degauss", "coverage_check"),
    ("cli", "main"),
]

OWNERS = {"optimize.optimize_superposition", "optimize.optimize_qutrit",
          "optimize.optimize_gaussian", "degauss.region_map"}


class Tracer:
    """Collects, for each layer: calls, total and child time, summed dimension,
    and calls made under each owner span."""

    def __init__(self):
        self.stack = []
        self.owner = None
        self.reset()

    def reset(self):
        """Forget everything recorded so far; installed wrappers stay."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.dim_sum = defaultdict(int)
        self.nested = defaultdict(int)
        self.region_points = 0
        self.region_skipped = 0

    def install(self, package: str = "lossqfi"):
        """Wrap every layer at every binding in the imported modules of ``package``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for mod_name, func_name in LAYERS:
            target = getattr(sys.modules[f"{package}.{mod_name}"], func_name)
            wrapped = self._wrap(f"{mod_name}.{func_name}", target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name, func):
        stack = self.stack

        is_owner = name in OWNERS

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            owner = self.owner
            if owner is not None:
                self.nested[(owner, name)] += 1
            if is_owner:
                self.owner = name
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.owner = owner
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[1]
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _observe(self, name, args, result):
        if name == "fock.displaced_squeezed_vacuum":
            self.dim_sum[name] += result.dim
        elif name == "estimation.qfi_of_state":
            self.dim_sum[name] += args[0].dim
        elif name == "degauss.region_map":
            self.region_points += int(result.points.size)
            self.region_skipped += int(result.skipped)

    def summary(self) -> dict:
        """Plain-data totals for the per-layer metrics."""
        names = [f"{m}.{f}" for m, f in LAYERS]
        return {
            "calls": {n: self.calls[n] for n in names},
            "self_s": {n: self.total[n] - self.child[n] for n in names},
            "dim_sum": {n: self.dim_sum[n] for n in names},
            "nested": {f"{o}>{n}": c for (o, n), c in sorted(self.nested.items())},
            "region_points": self.region_points,
            "region_skipped": self.region_skipped,
        }
