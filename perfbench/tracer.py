"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions of the program's layers
with wrappers that record one span per call: layer, start, end and the
span that was open when the call began (its parent).  Spans live in
four flat arrays, so a traced pass of a few million calls costs tens of
bytes per span, and are written out once the pass ends.  Nothing under
``src/`` changes: :meth:`Tracer.patch` replaces class attributes and
module globals, and :meth:`Tracer.uninstall` puts the originals back.

Self time is a span's duration minus the time its child spans cover;
per layer it is summed over that layer's spans.  Work done inside a
wrapped call by code that has no wrapper of its own (for example event
callbacks fired by the engine) counts as that call's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_perf = time.perf_counter


class Tracer:
    """Records spans and boundary counters for the wrapped layers."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        #: Counters recorded at the wrapped boundaries (name -> number).
        self.counts: Dict[str, float] = {}
        #: Objects the wrappers collected (name -> list), e.g. devices.
        self.collected: Dict[str, list] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def collect(self, name: str, obj) -> None:
        self.collected.setdefault(name, []).append(obj)

    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def wrapper(self, func: Callable, layer: str,
                before: Optional[Callable] = None,
                after: Optional[Callable] = None,
                on_error: Optional[str] = None) -> Callable:
        """A span-recording stand-in for ``func``.

        ``before(args, kwargs)`` runs before the span opens and
        ``after(args, kwargs, result)`` once it has closed, so the
        counters they record are not charged to the layer.  When
        ``on_error`` is given, a call that raises bumps that counter.
        """
        lid = self._layer_id(layer)
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_perf())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                ends[idx] = _perf()
                stack.pop()
                if on_error is not None:
                    tracer.count(on_error)
                raise
            ends[idx] = _perf()
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, **hooks) -> None:
        """Wrap ``owner.attr`` (a class or module attribute)."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrapper(original, layer, **hooks))
        self._patches.append((owner, attr, original))

    def patch_function(self, func: Callable, layer: str, **hooks) -> None:
        """Wrap a module-level function everywhere the program bound it.

        ``from x import f`` copies the reference into the importing
        module, so every loaded ``repro`` module holding ``func`` is
        patched, not only the defining one.
        """
        traced = self.wrapper(func, layer, **hooks)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, func))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.span_layer)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per layer, in host seconds."""
        n = self.n_spans
        if n == 0:
            return {}
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        per_layer = np.bincount(layer, weights=own,
                                minlength=len(self.layers))
        return {name: float(per_layer[i])
                for i, name in enumerate(self.layers)}

    def write(self, path: str) -> None:
        """Write every span (layer id, parent, start, end) to ``path``."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
