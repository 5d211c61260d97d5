"""Layer-boundary tracing from outside the program.

:class:`Tracer` replaces chosen class methods with timing wrappers and
restores them afterwards.  Each call is a span; a span's self time is its
duration minus the durations of the spans it called, which is what
:func:`perfbench.stats.self_times` computes from stored spans.  The tracer
folds that subtraction in as spans close, so a run of millions of calls
keeps one counter pair per label instead of every span.

Wrap before the cluster is built: the node binds ``network.send`` and the
replica's ``on_message`` when it is constructed, so a later wrap misses
them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, label)`` -- the label separates e.g. wire types within a layer.
Key = Tuple[str, str]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: One child-time accumulator per open span, innermost last.
        self._open: List[List[float]] = []
        self.self_s: Dict[Key, float] = defaultdict(float)
        self.calls: Dict[Key, int] = defaultdict(int)
        #: Calls per wrapped boundary, ``"Class.method"``.
        self.boundary_calls: Dict[str, int] = {}
        #: ``(cls, name, original, cls_defined_it)`` for each wrap, in order.
        self._patched: List[Tuple[type, str, Any, bool]] = []

    # ----------------------------------------------------------------- spans
    def call(self, key: Key, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one span attributed to ``key``."""
        clock = self._clock
        children = [0.0]
        self._open.append(children)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            self._open.pop()
            self.self_s[key] += duration - children[0]
            self.calls[key] += 1
            if self._open:
                self._open[-1][0] += duration

    # ------------------------------------------------------------- patching
    def wrap(
        self,
        cls: type,
        name: str,
        key: Callable[[tuple], Key],
        before: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Trace every call of ``cls.name``; ``key(args)`` labels the span.

        ``before(args)``, when given, observes the arguments before the
        call (used to read queue state the call is about to change).
        """
        original = getattr(cls, name)
        boundary = f"{cls.__name__}.{name}"
        self.boundary_calls[boundary] = 0
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.boundary_calls[boundary] += 1
            if before is not None:
                before(args)
            return tracer.call(key(args), original, *args, **kwargs)

        traced.__wrapped__ = original
        self._patched.append((cls, name, original, name in cls.__dict__))
        setattr(cls, name, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            cls, name, original, owned = self._patched.pop()
            if owned:
                setattr(cls, name, original)
            else:
                delattr(cls, name)

    def reset(self) -> None:
        """Forget recorded spans and calls; wrappers stay installed."""
        self.self_s.clear()
        self.calls.clear()
        for boundary in self.boundary_calls:
            self.boundary_calls[boundary] = 0

    def silent_boundaries(self) -> List[str]:
        """Wrapped boundaries that saw no call -- a sign of a wrong wrap."""
        return sorted(b for b, n in self.boundary_calls.items() if n == 0)
