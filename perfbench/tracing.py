"""Spans around the calls into fracmatch's layers, recorded from outside.

A ``Tracer`` replaces each traced function in every loaded ``fracmatch``
module that holds a reference to it, which is where its callers look it up
(``from .x import y`` binds a second name in the caller's module).  Spans
are kept in memory as ``[key, start, end, parent, op, items]`` lists and
written out when the benchmark ends.  Generator functions are timed across
their iteration: every ``next()`` is one span segment, so the consumer's
work between items is not charged to the generator.

Work inside pool worker processes is not seen: a forked worker inherits
the wrappers, but its spans stay in the worker's copy of the tracer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

KEY, START, END, PARENT, OP, ITEMS = range(6)


def _len_arg(index: int) -> Callable:
    return lambda args, result: len(args[index])


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and what it counts."""

    module: str
    name: str
    key: str
    items: Callable | None = None  # (args, result) -> number of items


def _formulas_targets() -> list[Target]:
    """Every function defined in fracmatch.formulas, as one layer."""
    mod = sys.modules.get("fracmatch.formulas")
    if mod is None:
        return []
    return [Target("fracmatch.formulas", name, "formulas")
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__]


def default_targets() -> list[Target]:
    """The public functions of each layer that the metrics are read from."""
    t = [
        Target("fracmatch.cli", "main", "cli.main"),
        Target("fracmatch.verifier", "verify_bound", "verifier.verify_bound",
               lambda args, result: result.scanned),
        Target("fracmatch.verifier", "verify_nonexistence", "verifier.verify_nonexistence"),
        Target("fracmatch.verifier", "native_invariants", "verifier.native_invariants",
               lambda args, result: len(result["nu2"])),
        Target("fracmatch.verifier", "mask_invariants", "verifier.mask_invariants", _len_arg(1)),
        Target("fracmatch.verifier", "load_stream", "verifier.load_stream"),
        Target("fracmatch.verifier", "count_motif_vector", "verifier.count_motif_vector",
               _len_arg(1)),
        Target("fracmatch.verifier", "matching_number_at_least",
               "verifier.matching_number_at_least", _len_arg(1)),
        Target("fracmatch.matching", "nu_star_fast", "matching.nu_star_fast"),
        Target("fracmatch.matching", "nu_star_deficiency", "matching.nu_star_deficiency"),
        Target("fracmatch.matching", "fractional_certificate", "matching.fractional_certificate"),
        Target("fracmatch.matching", "matching_number", "matching.matching_number"),
        Target("fracmatch.counting", "count_motif", "counting.count_motif"),
        Target("fracmatch.graphs", "from_graph6", "graphs.from_graph6"),
        Target("fracmatch.graphs", "to_graph6", "graphs.to_graph6"),
        Target("fracmatch.graphs", "are_isomorphic", "graphs.are_isomorphic"),
        Target("fracmatch.corpus", "read_graph6_stream", "corpus.read_graph6_stream"),
        Target("fracmatch.corpus", "canonical_graph6", "corpus.canonical_graph6"),
        Target("fracmatch.corpus", "nonisomorphic_graphs", "corpus.nonisomorphic_graphs"),
        Target("fracmatch.constructions", "build_extremal", "constructions.build_extremal"),
    ]
    return t + _formulas_targets()


class Tracer:
    """In-memory span recorder; ``with tracer:`` installs the wrappers."""

    def __init__(self, targets: list[Target], op_keys: frozenset[str] = frozenset(),
                 observers: dict[str, Callable] | None = None):
        self.targets = targets
        self.op_keys = op_keys  # entering one of these starts a new op id
        self.observers = observers or {}  # key -> f(args, result), for side facts
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, key: str) -> int:
        if key in self.op_keys:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, time.perf_counter(), 0.0, parent, self._op, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, items: float = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ITEMS] = items
        self._stack.pop()

    def _nested_in_same_layer(self, key: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][KEY] == key

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        key, items_of = target.key, target.items
        observer = self.observers.get(key)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(key)
                        try:
                            item = next(it)
                        except StopIteration:
                            self._close(idx)
                            return
                        except BaseException:
                            self._close(idx)
                            raise
                        self._close(idx, 1)
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._nested_in_same_layer(key):
                return fn(*args, **kwargs)
            idx = self._open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, items_of(args, result) if items_of else 0)
            if observer is not None:
                observer(args, result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fracmatch" or name.startswith("fracmatch."))]
        for target in self.targets:
            home = sys.modules.get(target.module)
            original = getattr(home, target.name, None) if home is not None else None
            if original is None:
                self.missing.append(f"{target.module}.{target.name}")
                continue
            wrapped = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), and each child lies
    inside its parent, so the covered time is the sum of child durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    items: float = 0


def layer_totals(spans: list[list], selfs: list[float], lo: int = 0,
                 hi: int | None = None) -> dict[str, LayerTotals]:
    """Per key over spans[lo:hi]: calls (a generator records one span per
    ``next()``), summed self time, summed duration and summed items."""
    out: dict[str, LayerTotals] = {}
    for idx in range(lo, len(spans) if hi is None else hi):
        span = spans[idx]
        t = out.setdefault(span[KEY], LayerTotals())
        t.calls += 1
        t.self_s += selfs[idx]
        t.total_s += span[END] - span[START]
        t.items += span[ITEMS]
    return out
