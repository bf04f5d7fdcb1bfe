"""Span recorder for the traced benchmark run.

Public functions of ``identangle`` are wrapped under the names their callers
look them up by: ``cli.classify`` is the ``classify`` that ``identangle.cli``
calls, ``reduction.apply_transform`` the one ``identangle.reduction`` calls.
The validated types are traced through their ``__post_init__`` methods.
A target that no longer exists is skipped, so the recorder keeps working
when a module or function is removed.

Spans are kept in memory as (name, start, end, parent, op) records and only
inside an operation's root span; the benchmark's own checks are never
recorded. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans of an operation add up to
the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

ROOT_SPAN = "bench.op"


def _num_particles(value) -> int:
    return int(value.num_particles)


def _terms(value) -> int:
    return len(value.terms)


# (module, attribute path, span name, size of the call, counters of the call).
# The size is the particle count N, read from (args, result) after the call.
TARGETS = [
    ("identangle.cli", "main", "cli.main", None, None),
    ("identangle.cli", "build_spec", "cli.build_spec", None, None),
    ("identangle.cli", "build_gram", "cli.build_gram", None, None),
    ("identangle.cli", "write_density_matrix", "cli.write_density_matrix", None, None),
    ("identangle.cli", "classify", "entanglement.classify", None, None),
    ("identangle.cli", "fidelity_mixed", "entanglement.fidelity_mixed", None, None),
    ("identangle.cli", "density_matrix_from_spec", "reduction.solve", None, None),
    ("identangle.cli", "simulate_counts", "tomography.simulate_counts", None, None),
    ("identangle.cli", "write_counts", "tomography.write_counts", None, None),
    ("identangle.cli", "read_counts", "tomography.read_counts", None, None),
    ("identangle.cli", "reconstruct_mle", "tomography.reconstruct_mle", None, None),
    ("identangle", "density_matrix_from_spec", "reduction.solve", None, None),
    ("identangle.entanglement", "optimize_w_phases", "entanglement.optimize_w_phases",
     None, None),
    ("identangle.reduction", "apply_transform", "expansion.apply_transform",
     lambda args, result: _num_particles(result),
     lambda args, result: {"expansion.terms": _terms(result)}),
    ("identangle.reduction", "postselect_no_bunching", "reduction.postselect",
     lambda args, result: _num_particles(result),
     lambda args, result: {
         "reduction.survivors": _terms(result),
         "reduction.pairs": _terms(result) ** 2,
     }),
    ("identangle.reduction", "trace_distinguishability", "reduction.trace",
     lambda args, result: _num_particles(args[0]), None),
    ("identangle.transform", "TransformSpec.__post_init__", "transform.validate",
     None, None),
    ("identangle.reduction", "GramMatrix.__post_init__", "reduction.gram_validate",
     None, None),
    ("identangle.density", "DensityMatrix.__post_init__", "density.validate",
     lambda args, result: int(args[0].num_qubits), None),
    ("identangle.tomography", "CountsTable.__post_init__", "tomography.counts_validate",
     None, lambda args, result: {"tomography.counts_rows": len(args[0].rows)}),
]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    size: int


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value), or None when any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Recorder:
    """Wraps the targets while installed and records spans inside ``op``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; returns the span names installed."""
        installed = []
        for module_name, path, name, size, count in targets:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(original, name, size, count))
            self._patches.append((owner, attr, original))
            installed.append(name)
        return installed

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def op(self, op_id: int, call):
        """Run ``call()`` inside a root span for operation ``op_id``."""
        return self._record(ROOT_SPAN, call, (), {}, None, None, op_id)

    def _wrap(self, original, name, size, count):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder._stack:
                return original(*args, **kwargs)
            return recorder._record(name, original, args, kwargs, size, count, None)

        return wrapper

    def _record(self, name, call, args, kwargs, size, count, op_id):
        parent = self._stack[-1] if self._stack else -1
        if op_id is None:
            op_id = self.spans[parent].op
        index = len(self.spans)
        # Placeholder holding the op id until the span closes.
        self.spans.append(Span(name, 0.0, 0.0, parent, op_id, 0))
        self._stack.append(index)
        result = None
        succeeded = False
        start = perf_counter()
        try:
            result = call(*args, **kwargs)
            succeeded = True
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            n = 0
            if succeeded and size is not None:
                try:
                    n = size(args, result)
                except (AttributeError, IndexError, TypeError):
                    n = 0
            self.spans[index] = Span(name, start, end, parent, op_id, n)
            if succeeded and count is not None:
                try:
                    for key, value in count(args, result).items():
                        self.counts[key] += value
                except (AttributeError, IndexError, TypeError):
                    pass


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - child[i] for i, span in enumerate(spans)]
