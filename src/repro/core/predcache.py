"""Memoized offload-time predictions (hot-path pass).

Tile selection sweeps every benchmarked candidate ``T`` through a
prediction model; the serving dispatcher does this once per placement
score and the library once per call.  Most of those evaluations repeat
the exact same (model, problem, T) triple — placement scoring in
particular asks about the same few problem shapes thousands of times —
so this module provides a :class:`PredictionCache` that memoizes both
whole :class:`~repro.core.select.TileChoice` results and individual
per-``T`` predictions.

Keys combine the *instance* of the deployed
:class:`~repro.core.instantiation.MachineModels` (two machines predict
differently for the same problem), the resolved model name, the
problem's :meth:`~repro.core.params.CoCoProblem.signature`, and the
selection arguments.  Cached values are exactly what the uncached path
would compute — the cache is a pure memo, so traces, makespans, and
serve reports are byte-identical with and without it (a traced dgemm's
event stream is compared both ways in ``tests/core/test_predcache.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .instantiation import MachineModels
from .params import CoCoProblem
from .registry import resolve_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (select uses us)
    from .select import TileChoice


@dataclass
class PredCacheStats:
    """Hit/miss counters of one :class:`PredictionCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0


class PredictionCache:
    """Memo for tile choices and per-(model, problem, T) predictions.

    One cache instance may be shared across consumers (library calls,
    dispatchers, experiment sweeps) that score the same machine models;
    the models instance is part of every key, so a shared cache is also
    safe across *different* machines.
    """

    def __init__(self) -> None:
        self._choices: Dict[Tuple, "TileChoice"] = {}
        self._times: Dict[Tuple, float] = {}
        #: Strong refs keep cached MachineModels instances alive so an
        #: ``id()`` is never reused by a different instance mid-life.
        self._pinned: Dict[int, MachineModels] = {}
        self.stats = PredCacheStats()

    def __len__(self) -> int:
        return len(self._choices) + len(self._times)

    def _models_key(self, models: MachineModels) -> int:
        key = id(models)
        if key not in self._pinned:
            self._pinned[key] = models
        return key

    # ------------------------------------------------------------------

    def choice(
        self,
        problem: CoCoProblem,
        models: MachineModels,
        model: str = "auto",
        min_tile: int = 0,
        interpolate: bool = False,
        percentile: Optional[float] = None,
    ) -> "TileChoice":
        """Memoized :func:`~repro.core.select.select_tile` result.

        With ``percentile`` set, the memo returns the tail-inflated
        choice; the key carries the tail bank's :attr:`version`, so
        entries invalidate exactly when an online refit moves the
        quantiles — the cache stays a pure memo in tail mode too.
        """
        if percentile is not None:
            return self._tail_choice(problem, models, model, min_tile,
                                     interpolate, percentile)
        model_key = resolve_model(model, problem)
        sig = problem.signature()
        key = (self._models_key(models), model_key, sig, min_tile,
               interpolate)
        choice = self._choices.get(key)
        if choice is not None:
            self.stats.hits += 1
            return choice
        self.stats.misses += 1
        from .select import select_tile  # deferred: select imports us

        choice = select_tile(problem, models, model=model_key,
                             min_tile=min_tile, interpolate=interpolate)
        self._choices[key] = choice
        # The sweep's per-T values come along for free; future single-T
        # predict() calls on this problem are then O(1) too.
        mk = key[0]
        for t, seconds in choice.per_tile.items():
            self._times[(mk, model_key, sig, t, interpolate)] = seconds
        return choice

    def _tail_choice(
        self,
        problem: CoCoProblem,
        models: MachineModels,
        model: str,
        min_tile: int,
        interpolate: bool,
        percentile: float,
    ) -> "TileChoice":
        """Memoized tail-inflated choice (scaled from the mean memo)."""
        bank = models.tail
        version = bank.version if bank is not None else -1
        model_key = resolve_model(model, problem)
        key = (self._models_key(models), model_key, problem.signature(),
               min_tile, interpolate, float(percentile), version)
        choice = self._choices.get(key)
        if choice is not None:
            self.stats.hits += 1
            return choice
        self.stats.misses += 1
        base = self.choice(problem, models, model=model_key,
                           min_tile=min_tile, interpolate=interpolate)
        from .select import scale_choice  # deferred: select imports us

        choice = scale_choice(base, problem, models, percentile)
        self._choices[key] = choice
        return choice

    def predict(
        self,
        model: str,
        problem: CoCoProblem,
        t: int,
        models: MachineModels,
        interpolate: bool = False,
    ) -> float:
        """Memoized single (model, problem, T) prediction."""
        model_key = resolve_model(model, problem)
        key = (self._models_key(models), model_key, problem.signature(), t,
               interpolate)
        seconds = self._times.get(key)
        if seconds is not None:
            self.stats.hits += 1
            return seconds
        self.stats.misses += 1
        from .registry import predict as predict_fn

        seconds = predict_fn(model_key, problem, t, models, interpolate)
        self._times[key] = seconds
        return seconds

    def distributed_choice(
        self,
        kind: str,
        problem: CoCoProblem,
        models: MachineModels,
        topology,
        n_gpus: int,
        variant: str = "pipelined",
        depth: int = 2,
        interpolate: bool = False,
    ):
        """Memoized SUMMA-panel / streaming-gemv-chunk selection.

        Keys add the interconnect's ``signature()`` and the GPU count
        to the usual (models, problem) pair, so one shared cache can
        score the same problem on different fabrics.
        """
        topo_sig = topology.signature() if topology is not None else None
        key = (self._models_key(models), "dist", kind, problem.signature(),
               n_gpus, topo_sig, variant, depth, interpolate)
        choice = self._choices.get(key)
        if choice is not None:
            self.stats.hits += 1
            return choice
        self.stats.misses += 1
        from .distributed import select_gemv_chunk, select_summa_panel

        if kind == "summa":
            choice = select_summa_panel(
                problem, n_gpus, topology, models, variant=variant,
                depth=depth, interpolate=interpolate)
        elif kind == "streaming_gemv":
            choice = select_gemv_chunk(
                problem, n_gpus, topology, models, interpolate=interpolate)
        else:
            raise ValueError(f"unknown distributed choice kind {kind!r}")
        self._choices[key] = choice
        return choice

    def clear(self) -> None:
        """Drop all cached entries (stats are kept)."""
        self._choices.clear()
        self._times.clear()
        self._pinned.clear()
