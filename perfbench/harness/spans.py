"""Spans recorded around the public functions of each layer, and their attribution.

:class:`SpanRecorder` wraps a function or method so that each call records
a span: name, id, parent id, start, end and a few attributes.  Parents come
from a context variable, so each thread nests its own calls.  Wrappers are
undone by :meth:`SpanRecorder.restore`, which puts back the exact objects it
replaced, including every ``repro`` module that imported a wrapped function
by name.

:func:`attribute` turns spans into time per layer.  Every instant inside a
root ``op`` span goes to exactly one span: the deepest one active then, the
latest started among equals.  For spans nested in one thread that is each
span's duration minus the time its children cover (its self time); spans of
other threads or processes that overlap an op are placed by the same rule.
The ``op`` spans keep what no layer covers, reported as ``unattributed``.
Attributed times therefore add up to the total op time.

Times are :func:`time.perf_counter` values, which on Linux read the
system-wide monotonic clock, so spans of different processes on one host
share a time line.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import sys
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Iterator

ROOT = "op"
UNATTRIBUTED = "unattributed"

_MISSING = object()


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:  # instances such as frozen dataclasses
        object.__setattr__(owner, attr, value)


def _remove(owner: Any, attr: str) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        delattr(owner, attr)
    else:
        object.__delattr__(owner, attr)


class SpanRecorder:
    """An in-memory list of finished spans, plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}."
        self._current: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: (owner, attribute, object that was there or _MISSING), in patch order.
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record one span around the ``with`` body; the body may add attributes."""
        span_id = f"{self._prefix}{next(self._ids)}"
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append({"name": name, "id": span_id, "parent": parent,
                               "start": start, "end": end, "attrs": attrs})

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Callable[[tuple, dict, Any], dict[str, Any]] | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``describe(args, kwargs, result)`` may return attributes for the
        span, such as a row count.  A module-level function is replaced in
        every loaded ``repro`` module that holds it under the same name.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        targets = [owner]
        if isinstance(owner, types.ModuleType):
            targets += [
                module for module_name, module in list(sys.modules.items())
                if module is not owner and module_name.split(".")[0] == "repro"
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, vars(target).get(attr, _MISSING)))
            _assign(target, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                _remove(owner, attr)
            else:
                _assign(owner, attr, previous)


def depths(spans: list[dict[str, Any]], offset: int = 0) -> list[int]:
    """Each span's nesting depth (roots at ``offset``), following parent ids."""
    by_id = {span["id"]: span for span in spans}
    memo: dict[str, int] = {}

    def depth(span: dict[str, Any]) -> int:
        known = memo.get(span["id"])
        if known is None:
            parent = by_id.get(span["parent"]) if span["parent"] is not None else None
            known = offset if parent is None else depth(parent) + 1
            memo[span["id"]] = known
        return known

    return [depth(span) for span in spans]


def attribute(layers: list[tuple[dict[str, Any], int]]) -> dict[str, float]:
    """Seconds per span name over the union of the ``op`` spans.

    ``layers`` pairs each span with its depth.  Each elementary interval
    between span boundaries is charged to the deepest active span (latest
    start among equals) while at least one ``op`` span is active; the
    ``op`` spans' own share is returned as ``unattributed``.
    """
    events: list[tuple[float, int, int]] = []
    for index, (span, _) in enumerate(layers):
        if span["end"] > span["start"]:
            events.append((span["start"], 1, index))
            events.append((span["end"], -1, index))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: dict[str, float] = {}
    active: set[int] = set()
    open_ops = 0
    previous = None
    for moment, kind, index in events:
        if previous is not None and moment > previous and open_ops and active:
            owner = max(active, key=lambda i: (layers[i][1], layers[i][0]["start"], i))
            name = layers[owner][0]["name"]
            name = UNATTRIBUTED if name == ROOT else name
            totals[name] = totals.get(name, 0.0) + (moment - previous)
        previous = moment
        if kind == 1:
            active.add(index)
        else:
            active.discard(index)
        if layers[index][0]["name"] == ROOT:
            open_ops += kind
    return totals
