"""Outside-in layer tracer for qcollide.

The tracer replaces public functions of the ``qcollide`` modules with timing
wrappers; the program's source is left untouched. Every binding of the
original function object in every loaded ``qcollide`` module is replaced, so
calls through a module attribute (``collision.evolve``), through a module
global inside the defining module, and through a ``from .x import f`` name in
another module are all recorded.

Spans are kept in memory as ``(name, start, end, parent, run_id)`` and written
out by the caller when the run ends. A function's self time is its span's
duration minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType

# The layer functions the benchmark records, as "<module>.<function>" with the
# module named relative to the qcollide package.
LAYER_FUNCTIONS = (
    "collision.evolve",
    "collision.build_circuit",
    "collision.bloch_image_samples",
    "circuit.transpile",
    "noisytomo.apply_noisy_circuit",
    "noisytomo.sample",
    "noisytomo.sample_calibration",
    "noisytomo.mitigate_readout",
    "noisytomo.reconstruct",
    "nonmarkov.blp_max_increase",
    "nonmarkov.rhp_series",
    "nonmarkov.bloch_volume",
    "entangle.concurrence_2q",
    "entangle.assistance_2q",
    "entangle.concurrence_lower",
    "entangle.assistance_upper",
    "qmat.state_fidelity",
)


# Work counts taken at a layer boundary: function -> {counter: f(args, kwargs, result)}.
COUNTERS = {
    "circuit.transpile": {
        "native_gates": lambda a, k, out: len(out.gates),
        "ecr": lambda a, k, out: sum(g.kind == "ECR" for g in out.gates),
    },
    "noisytomo.apply_noisy_circuit": {
        "gates": lambda a, k, out: len((a[0] if a else k["c"]).gates),
    },
    "noisytomo.sample": {
        "settings": lambda a, k, out: len(out.counts),
    },
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, run_id: str = "0", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run_id]
        self.counts: dict[str, float] = {}
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        counters = counters or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, self.clock(), None, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            for cname, count in counters.items():
                key = f"{name}.{cname}"
                try:
                    self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, out)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.broken_counters.add(key)
            return out

        return wrapper

    def install(self, package: str = "qcollide", functions=LAYER_FUNCTIONS,
                counters=COUNTERS) -> list[str]:
        """Wrap every listed function that exists; return the absent ones."""
        modules = [m for key, m in list(sys.modules.items())
                   if isinstance(m, ModuleType)
                   and (key == package or key.startswith(package + "."))]
        absent = []
        for qualified in functions:
            mod_name, _, fn_name = qualified.rpartition(".")
            mod = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(original):
                absent.append(qualified)
                continue
            wrapper = self.wrap(qualified, original, counters.get(qualified))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        return absent


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, wall_start: float, wall_end: float):
    """Per-name self time and call count, plus the time no top-level span covers.

    Returns ``(self_s, calls, root_self_s)``. Child intervals are clipped to
    their parent's interval, so the self times of all spans plus
    ``root_self_s`` add up to ``wall_end - wall_start``.
    """
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[3], []).append(span)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for idx, (name, start, end, _parent, _run) in enumerate(spans):
        kids = [(max(c[1], start), min(c[2], end)) for c in children.get(idx, ())]
        covered = _covered((a, b) for a, b in kids if b > a)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
    tops = [(max(s[1], wall_start), min(s[2], wall_end)) for s in children.get(-1, ())]
    root = (wall_end - wall_start) - _covered((a, b) for a, b in tops if b > a)
    return self_s, calls, root
