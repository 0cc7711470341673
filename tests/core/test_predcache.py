"""Tests for the memoized prediction cache and the vectorized sweep.

The cache is a pure memo: everything it returns must be bit-identical
to what the uncached path computes, or traces and serve reports would
change with cache state.
"""

import pytest

from repro.core.exec_model import ExecLookup
from repro.core.instantiation import MachineModels
from repro.core.params import axpy_problem, gemm_problem
from repro.core.predcache import PredictionCache
from repro.core.registry import predict, sweep_predict
from repro.core.select import candidate_tiles, select_tile
from repro.core.transfer_model import LinkModel, TransferFit
from repro.runtime.routines import CoCoPeLiaLibrary


def make_models(scale=1.0):
    link = LinkModel(
        TransferFit(latency=1e-5, sec_per_byte=1e-9 * scale, sl=1.2),
        TransferFit(latency=1e-5, sec_per_byte=2e-9 * scale, sl=1.5),
    )
    mm = MachineModels("synthetic", link)
    mm.add_exec_lookup(ExecLookup("gemm", "d", {
        256: 1e-3 * scale, 512: 4e-3 * scale,
        1024: 3e-2 * scale, 2048: 2.3e-1 * scale,
    }))
    mm.add_exec_lookup(ExecLookup("axpy", "d", {
        1 << 18: 1e-4 * scale, 1 << 20: 4e-4 * scale,
        1 << 22: 1.6e-3 * scale,
    }))
    return mm


@pytest.fixture()
def models():
    return make_models()


def traced_gemm(machine, models, cache):
    lib = CoCoPeLiaLibrary(machine, models, seed=7, trace=True,
                           prediction_cache=cache)
    result = lib.gemm(m=2048, n=2048, k=2048)
    events = [(ev.engine, ev.tag, ev.start, ev.end, ev.nbytes, ev.flops)
              for ev in lib.last_trace.events]
    return result.tile_size, result.seconds, events


class TestPredictionCache:
    def test_choice_matches_uncached_bit_exact(self, models, quiet_machine,
                                               models_quiet):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        cached = cache.choice(p, models, model="dr")
        plain = select_tile(p, models, model="dr")
        assert cached.t_best == plain.t_best
        assert cached.predicted_time == plain.predicted_time  # bit-exact
        assert cached.model == plain.model
        assert cached.per_tile == plain.per_tile  # every T, bit-exact
        # And end to end: a traced dgemm on deployed models replays the
        # same event stream whether its tile choice was memoized or not.
        uncached = traced_gemm(quiet_machine, models_quiet, None)
        memoized = traced_gemm(quiet_machine, models_quiet,
                               PredictionCache())
        assert memoized == uncached
        assert uncached[2]

    def test_second_choice_is_a_hit(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        first = cache.choice(p, models)
        second = cache.choice(p, models)
        assert second is first
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_equal_problems_share_an_entry(self, models):
        cache = PredictionCache()
        a = cache.choice(gemm_problem(4096, 4096, 4096), models)
        b = cache.choice(gemm_problem(4096, 4096, 4096), models)
        assert b is a

    def test_predict_matches_registry_bit_exact(self, models):
        p = gemm_problem(2048, 2048, 2048)
        cache = PredictionCache()
        for t in candidate_tiles(p, models):
            assert cache.predict("dr", p, t, models) == predict(
                "dr", p, t, models)

    def test_choice_seeds_per_tile_predictions(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        choice = cache.choice(p, models, model="dr")
        cache.stats.hits = cache.stats.misses = 0
        for t, expected in choice.per_tile.items():
            assert cache.predict("dr", p, t, models) == expected
        assert cache.stats.misses == 0
        assert cache.stats.hits == len(choice.per_tile)

    def test_auto_resolves_before_keying(self, models):
        """model='auto' and its resolved name share one cache entry."""
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        assert cache.choice(p, models, model="auto") is cache.choice(
            p, models, model="dr")
        assert cache.stats.misses == 1

    def test_distinct_models_instances_do_not_collide(self, models):
        slower = make_models(scale=2.0)
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        fast = cache.choice(p, models)
        slow = cache.choice(p, slower)
        assert cache.stats.misses == 2
        assert slow.predicted_time > fast.predicted_time
        assert slow.predicted_time == select_tile(p, slower).predicted_time

    def test_models_instance_pinned(self, models):
        """The cache holds a strong ref so id() keys cannot be reused."""
        cache = PredictionCache()
        cache.choice(gemm_problem(4096, 4096, 4096), models)
        assert models in cache._pinned.values()

    def test_selection_arguments_are_part_of_the_key(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        base = cache.choice(p, models)
        filtered = cache.choice(p, models, min_tile=512)
        assert cache.stats.misses == 2
        assert 256 in base.per_tile
        assert 256 not in filtered.per_tile

    def test_clear_drops_entries_keeps_stats(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        cache.choice(p, models)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        cache.choice(p, models)
        assert cache.stats.misses == 2


class TestSweepBitIdentity:
    """The vectorized per-T sweep must equal the scalar loop exactly."""

    @pytest.mark.parametrize("model", ["bts", "dr"])
    def test_gemm_sweep_matches_scalar(self, models, model):
        p = gemm_problem(4096, 4096, 4096)
        ts = candidate_tiles(p, models)
        swept = sweep_predict(model, p, ts, models)
        scalar = [predict(model, p, t, models) for t in ts]
        assert swept == scalar  # == on floats: bit-identical

    def test_axpy_sweep_matches_scalar(self, models):
        p = axpy_problem(1 << 24)
        ts = candidate_tiles(p, models)
        swept = sweep_predict("bts", p, ts, models)
        assert swept == [predict("bts", p, t, models) for t in ts]

    def test_select_tile_consistent_with_scalar_argmin(self, models):
        p = gemm_problem(4096, 4096, 4096)
        choice = select_tile(p, models, model="dr")
        ts = candidate_tiles(p, models)
        scalar = {t: predict("dr", p, t, models) for t in ts}
        assert choice.per_tile == scalar
