"""Span recording around calls into seqrac's public functions.

Only the traced run installs the wrappers.  A wrapper replaces a public
function wherever any ``seqrac`` module binds it, so a call that goes
through another module's import (``seqrac.sampling.matrix_sqrt_psd``,
``seqrac.cli.classical_bruteforce``) is recorded under the defining layer.
Spans stay in memory and are written out when the run ends.  Nothing in
``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  The span name is ``<layer>.<function>``;
# the CLI subcommand handlers are named after the subcommand.
TRACED = (
    ("linalg", "matrix_sqrt_psd", "linalg.matrix_sqrt_psd"),
    ("linalg", "max_eigenpair", "linalg.max_eigenpair"),
    ("linalg", "polar_decompose", "linalg.polar_decompose"),
    ("sampling", "random_strategy", "sampling.random_strategy"),
    ("scenario", "witness_pair", "scenario.witness_pair"),
    ("scenario", "joint_prob", "scenario.joint_prob"),
    ("strategies", "apply_visibility", "strategies.apply_visibility"),
    ("analytics", "in_quantum_set", "analytics.in_quantum_set"),
    ("analytics", "boundary_wac", "analytics.boundary_wac"),
    ("optimizer", "trace_boundary", "optimizer.trace_boundary"),
    ("optimizer", "seesaw", "optimizer.seesaw"),
    ("optimizer", "minimize_scalar", "optimizer.minimize_scalar"),
    ("optimizer", "charlie_best_response", "optimizer.charlie_best_response"),
    ("optimizer", "strategy_from_reduced", "optimizer.strategy_from_reduced"),
    ("optimizer", "classical_bruteforce", "optimizer.classical_bruteforce"),
    ("optimizer", "inequality_report", "optimizer.inequality_report"),
    ("documents", "read_strategy_file", "documents.read_strategy_file"),
    ("sequence", "simulate_chain", "sequence.simulate_chain"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "cmd_certify", "cli.certify"),
    ("cli", "cmd_noise", "cli.noise"),
    ("cli", "cmd_sequence", "cli.sequence"),
    ("cli", "cmd_classical", "cli.classical"),
    ("cli", "cmd_checks", "cli.checks"),
)

ITEM_SPAN = "item"


class Tracer:
    """Records one span per wrapped call made while an item is open.

    A span is ``(name, start_ns, end_ns, parent, item)``; ``parent`` is the
    index of the enclosing span, -1 for an item's root span.  Calls made
    outside an item (set-up, output checks) pass straight through.
    """

    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()
        self.item: int | None = None
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.item))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, item = self.spans[index]
        self.spans[index] = (name, start, end, parent, item)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(index)

        return traced

    def begin_item(self, item: int) -> None:
        self.item = item
        self._open(ITEM_SPAN)

    def end_item(self) -> None:
        self._close(self._stack[-1])
        self.item = None

    def install(self) -> None:
        """Replace every binding of each traced function in the seqrac modules."""
        import seqrac.cli  # noqa: F401  (the package does not import these two)
        import seqrac.documents  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "seqrac" or n.startswith("seqrac.")]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[f"seqrac.{module_name}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,item,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i},{parent},{item},{name},{start},{end}\n")


def self_times(spans: list, factors: list[float]) -> dict[str, tuple[int, float]]:
    """Per span name: ``(calls, self_ns)``, each span's self time scaled by
    its item's calibration factor ``factors[item]``.

    Self time is a span's duration minus the durations of its direct
    children.  With one thread, children are disjoint and lie inside their
    parent, so their summed durations are the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _, item) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start - covered[i]) * factors[item]
    return {name: (calls, ns) for name, (calls, ns) in totals.items()}
