"""Outside-in layer timing for the traced benchmark run.

A :class:`LayerTracer` replaces chosen functions at their module or class
attribute with timing wrappers.  It keeps a stack of open spans and
charges each span's wall time to its layer twice: in full to the layer's
total, and minus the spans opened inside it to the layer's self time.
Self times therefore add up to the wall time the spans cover, which is
what the waterfall reconciliation checks.

The program itself is never edited: :meth:`LayerTracer.wrap` swaps an
attribute and :meth:`LayerTracer.uninstall` puts the original back, so
the untraced run, which installs nothing, times the program as shipped.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

_MISSING = object()

#: A layer name, or a callable that picks the name from the call's
#: arguments (returning ``None`` leaves that call untimed).
Namer = Union[str, Callable[..., Optional[str]]]
#: ``on_exit(elapsed, args, kwargs, result)`` runs after each timed call.
ExitHook = Callable[[float, tuple, dict, Any], None]


class Layer:
    """Call count, inclusive total and self time of one layer."""

    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        #: Per-call wall seconds, kept only for layers reporting percentiles.
        self.samples: Optional[List[float]] = [] if keep_samples else None


class LayerTracer:
    """Span stack plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: One child-time accumulator per open span.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def layer(self, name: str, samples: bool = False) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer(samples)
        return found

    def _close(self, layer: Layer, elapsed: float, child: List[float]) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        layer.calls += 1
        layer.total += elapsed
        layer.self_time += elapsed - child[0]
        if layer.samples is not None:
            layer.samples.append(elapsed)

    @contextmanager
    def span(self, name: str, samples: bool = False) -> Iterator[None]:
        """Time a benchmark-side block as one call of layer ``name``."""
        layer = self.layer(name, samples)
        child = [0.0]
        self._stack.append(child)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, time.perf_counter() - start, child)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Namer,
        samples: bool = False,
        on_exit: Optional[ExitHook] = None,
    ) -> None:
        """Time every call of ``owner.attr`` until :meth:`uninstall`."""
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        stack = self._stack
        close = self._close
        layer_of = self.layer
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if label is None:
                return original(*args, **kwargs)
            layer = layer_of(label, samples)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                close(layer, elapsed, child)
            if on_exit is not None:
                on_exit(elapsed, args, kwargs, result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Keep the wrappers in place for the block, then remove them."""
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ readout

    def total(self, *names: str) -> float:
        return sum(self.layers[n].total for n in names if n in self.layers)

    def self_time(self, *names: str) -> float:
        return sum(self.layers[n].self_time for n in names if n in self.layers)

    def calls(self, *names: str) -> int:
        return sum(self.layers[n].calls for n in names if n in self.layers)

    def self_sum(self) -> float:
        """Self time of every layer: the wall time the spans cover."""
        return sum(layer.self_time for layer in self.layers.values())

    def table(self) -> List[Dict[str, Any]]:
        """The waterfall rows, largest self time first."""
        return [
            {
                "layer": name,
                "calls": layer.calls,
                "total_s": layer.total,
                "self_s": layer.self_time,
            }
            for name, layer in sorted(
                self.layers.items(), key=lambda item: -item[1].self_time
            )
        ]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]
