"""In-memory span recording around the simulator's public calls.

The tracer times calls into each layer from *outside* the program: it
swaps module attributes (functions) and class attributes (methods and
properties) for thin wrappers, records one span per call, and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is
edited.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the
index of the innermost span open when the call began (``-1`` at top
level) and ``counts`` holds the work counters read at the same boundary
(transmitters and receivers of a resolver call, rows of a GF(2) block,
rounds of a stage), or ``None``.

Swapping ``RadioNetwork.resolve_round`` on the class keeps the stage
drivers' direct-path test ``type(net).resolve_round is
RadioNetwork.resolve_round`` true on a bare network (both sides read
the same class attribute) and false under a subclass that overrides
it, so tracing never changes which path a run takes.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Counter = Callable[[tuple, Any, Any], Optional[Dict[str, int]]]


@dataclass(frozen=True)
class Target:
    """One call site to wrap.

    ``owner`` is a module (``kind="function"``: every ``repro`` module
    that bound the same function object by name is patched too, because
    ``from x import f`` copies the reference) or a class (``"method"``
    or ``"property"``).  ``pre`` reads state before the call; ``count``
    turns ``(args, result, pre)`` into the span's counters.
    """

    name: str
    owner: Any
    attr: str
    kind: str = "function"
    pre: Optional[Callable[[tuple], Any]] = None
    count: Optional[Counter] = None


class Tracer:
    """Records spans in memory while its targets are installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []  # None: inherited

    # -- recording -----------------------------------------------------

    def _call(self, target: Target, fn, args, kwargs):
        pre = target.pre(args) if target.pre is not None else None
        parent = self._stack[-1] if self._stack else -1
        span = [target.name, time.perf_counter(), 0.0, parent, None]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if target.count is not None:
            span[4] = target.count(args, result, pre)
        return result

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(target, fn, args, kwargs)

        return traced

    # -- installation --------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            original = _raw_attr(target.owner, target.attr)
            if target.kind == "function":
                wrapped = self._wrap(target, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
            elif target.kind == "method":
                self._patch(target.owner, target.attr,
                            self._wrap(target, original))
            elif target.kind == "property":
                self._patch(target.owner, target.attr, property(
                    self._wrap(target, original.fget), original.fset,
                    original.fdel, original.__doc__,
                ))
            else:
                raise ValueError(f"unknown target kind {target.kind!r}")

    def _patch(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner)[attr] if own else None))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _raw_attr(owner, attr: str):
    """The attribute as stored (no descriptor binding)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return getattr(owner, attr)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def children_of(spans: Sequence[list]) -> Dict[int, List[int]]:
    """Span index -> indices of its direct children."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    return children


def self_time(spans: Sequence[list], index: int,
              children: Dict[int, List[int]]) -> float:
    """A span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they
    are subtracted, so overlapping or out-of-range children are never
    counted twice.
    """
    _, start, end, _, _ = spans[index]
    covered = 0.0
    cursor = start
    for a, b in sorted(
        (max(spans[c][1], start), min(spans[c][2], end))
        for c in children.get(index, ())
    ):
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return (end - start) - covered
