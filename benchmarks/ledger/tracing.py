"""Spans recorded from outside the program.

The traced run patches the callables listed in
:mod:`benchmarks.ledger.boundaries` with wrappers that time each call.
Calls are synchronous and nested on one thread, so a stack of open
spans gives every span its parent, and

    self time = duration − the part covered by child spans.

Self times are summed per *stem* as spans close, so any number of units
can be traced in constant memory; the raw spans ``(id, name, layer,
start, end, parent)`` are kept only while :attr:`Tracer.recording` is
set and written out at the end of the run.  Nothing is measured until
:attr:`Tracer.active` is set, which keeps set-up and warm-up out of the
totals.

A span directly inside a span of the same stem is folded into it, so a
recursive walk (``Marshaller.marshal``) is one span, not thousands.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.ledger.boundaries import BOUNDARIES, Boundary


class Stat:
    """Totals of every span sharing one stem."""

    __slots__ = ("stem", "layer", "calls", "self_ns", "errors", "extra",
                 "durations")

    def __init__(self, stem: str, layer: str, durations: bool) -> None:
        self.stem = stem
        self.layer = layer
        self.calls = 0
        self.self_ns = 0
        #: Exception type name -> count of calls that raised it.
        self.errors: Dict[str, int] = {}
        #: What the row's ``result`` rule accumulated.
        self.extra = 0
        self.durations: Optional[List[int]] = [] if durations else None


def _package_of(func: Any) -> str:
    """The ``repro`` sub-package that defines *func*, else "other"."""
    parts = (getattr(func, "__module__", None) or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return "other"


#: What a row's ``result`` rule keeps of a call: (args, result) -> int.
_RESULT_RULES = {
    "sum": lambda args, result: int(result),
    "nonnull": lambda args, result: result is not None,
    "wire_bytes": lambda args, result: sum(
        len(item) for item in (*args, result)
        if isinstance(item, (bytes, bytearray))),
}


def _label_prefix(label: str) -> str:
    for separator in ":@":
        label = label.partition(separator)[0]
    return label or "unlabelled"


class Tracer:
    """Owns the span stack, the per-stem totals and the patches."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: Open spans, innermost last: [child_ns, stat, span id].
        self.stack: List[list] = []
        self.active = False
        self.recording = False
        self.spans: List[Tuple] = []
        self.next_id = 0
        #: Rows whose callable was not found: "module:Class.method".
        self.missing: List[str] = []
        #: Stems at least one row was patched for.
        self.patched_stems: set = set()
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        #: phase name -> layer -> self ns spent while the phase was open.
        self.phases: Dict[str, Dict[str, int]] = {}
        self._phase = ""
        self._phase_base: Dict[str, int] = {}

    # -- totals ------------------------------------------------------------

    def stat(self, stem: str, layer: str, durations: bool = False) -> Stat:
        stat = self.stats.get(stem)
        if stat is None:
            stat = self.stats[stem] = Stat(stem, layer, durations)
        return stat

    def layer_self_ns(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for stat in self.stats.values():
            totals[stat.layer] = totals.get(stat.layer, 0) + stat.self_ns
        return totals

    def phase(self, name: str) -> None:
        """Close the open phase and open *name* ("" opens none).

        Called between requests, when no boundary span is open, so the
        per-layer totals are settled.
        """
        totals = self.layer_self_ns()
        if self._phase:
            spent = self.phases.setdefault(self._phase, {})
            for layer, value in totals.items():
                delta = value - self._phase_base.get(layer, 0)
                spent[layer] = spent.get(layer, 0) + delta
        self._phase = name
        self._phase_base = totals

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, fn: Callable, name: str, stat: Stat,
                     result_rule: str = "") -> Callable:
        stack = self.stack
        clock = perf_counter_ns
        tracer = self
        keep = _RESULT_RULES.get(result_rule)

        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][1] is stat):
                return fn(*args, **kwargs)      # off, or folded into parent
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [0, stat, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stat.errors[kind] = stat.errors.get(kind, 0) + 1
                raise
            else:
                if keep is not None:
                    stat.extra += keep(args, result)
                return result
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                stat.calls += 1
                stat.self_ns += duration - frame[0]
                if stat.durations is not None:
                    stat.durations.append(duration)
                parent = -1
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][2]
                if tracer.recording:
                    tracer.spans.append((span_id, name, stat.layer,
                                         start, end, parent))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn: Callable, stat: Stat) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _callback_wrapper(self, fn: Callable, stem: str) -> Callable:
        """Wrap a callable that is handed callables (a scheduler taking
        an action, a node taking a handler): each callable passed in
        becomes a span charged to the package that defines it, named by
        the call's label prefix or else by the callable itself."""
        tracer = self

        def wrap(callback, label):
            package = _package_of(callback)
            name = (_label_prefix(label) if label
                    else getattr(callback, "__qualname__", "callback"))
            stat = tracer.stat(stem.format(pkg=package), package)
            return tracer.span_wrapper(callback, name, stat)

        def wrapper(self_, *args, **kwargs):
            label = kwargs.get("label") or next(
                (arg for arg in args if isinstance(arg, str)), "")
            args = [wrap(arg, label) if callable(arg) else arg
                    for arg in args]
            kwargs = {key: wrap(arg, label) if callable(arg) else arg
                      for key, arg in kwargs.items()}
            return fn(self_, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, boundaries: List[Boundary] = BOUNDARIES) -> None:
        """Patch every boundary that exists; note the ones that do not."""
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for row in boundaries:
            if not self._install_row(row):
                owner = f"{row.cls}." if row.cls else ""
                self.missing.append(f"{row.module}:{owner}{row.method}")

    def _install_row(self, row: Boundary) -> bool:
        try:
            owner = importlib.import_module(row.module)
            if row.cls is not None:
                owner = getattr(owner, row.cls)
        except (ImportError, AttributeError):
            return False
        owners = [owner]
        if row.subclasses:
            for cls in owners:                  # grows while iterating
                owners.extend(sub for sub in cls.__subclasses__()
                              if sub not in owners)
        patched = False
        for target in owners:
            original = vars(target).get(row.method)
            if not inspect.isfunction(original):
                continue
            package = row.layer or _package_of(original)
            stem = row.stem.format(pkg=package)
            prefix = f"{target.__name__}." if row.cls else ""
            name = f"{prefix}{row.method}"
            if row.how == "register":
                wrapper = self._callback_wrapper(original, row.stem)
            else:
                stat = self.stat(stem, package, row.durations)
                if row.how == "count":
                    wrapper = self._count_wrapper(original, stat)
                elif row.how == "schedule":
                    wrapper = self.span_wrapper(
                        self._callback_wrapper(original, "{pkg}.fired"),
                        name, stat)
                else:
                    wrapper = self.span_wrapper(original, name, stat,
                                                row.result)
            setattr(target, row.method, wrapper)
            self._patches.append((target, row.method, original, wrapper))
            self.patched_stems.update((stem, row.stem))
            patched = True
        return patched

    def restore(self) -> None:
        """Put every patched attribute back; assert it by identity."""
        while self._patches:
            target, attr, original, wrapper = self._patches.pop()
            assert vars(target)[attr] is wrapper, \
                f"{target.__name__}.{attr} was re-patched during the run"
            setattr(target, attr, original)
            assert vars(target)[attr] is original

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "layer", "start_ns", "end_ns", "parent")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
