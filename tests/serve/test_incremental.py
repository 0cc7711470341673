"""Incremental serving API tests: begin / submit / drain / evacuate.

The cluster layer drives each node's server one request at a time
(``begin`` + ``submit`` + ``run_to``) instead of the one-shot
``serve``.  These tests pin the contract the coordinator relies on:
the two drive modes produce identical outcomes for the same trace, the
modes are mutually exclusive, drains hand queued work back MIGRATED
with arrivals preserved, and evacuation cancels in-flight batches
without losing anything.
"""

import math

import numpy as np
import pytest

from repro.core.params import gemm_problem
from repro.obs import find_conservation_violations
from repro.serve import (
    BlasServer,
    Request,
    RequestState,
    ServeError,
    ServerConfig,
    WorkloadSpec,
    generate_workload,
)


def big_request(req_id, arrival=0.0):
    return Request(req_id=req_id, arrival=arrival,
                   problem=gemm_problem(2048, 2048, 2048, np.float64))


class TestModeExclusivity:
    def test_submit_requires_begin(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        with pytest.raises(ServeError, match="begin"):
            server.submit(big_request(0))

    def test_drain_requires_begin(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        with pytest.raises(ServeError, match="begin"):
            server.drain_queued()

    def test_finish_requires_begin(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        with pytest.raises(ServeError, match="begin"):
            server.finish()

    def test_serve_after_begin_rejected(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.begin()
        with pytest.raises(ServeError, match="exactly once"):
            server.serve([big_request(0)])

    def test_begin_after_serve_rejected(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.serve([])
        with pytest.raises(ServeError, match="exactly once"):
            server.begin()


def _both_drives(tb2, models_tb2, make_requests, seed):
    """The same trace through serve() and through a hand-driven
    begin / submit / sim.run / finish session."""
    config = ServerConfig(n_gpus=2, seed=seed)
    one_shot = BlasServer(tb2, models_tb2, config).serve(make_requests())
    server = BlasServer(tb2, models_tb2, config)
    server.begin()
    for request in make_requests():
        server.submit(request)
    server.sim.run()
    return one_shot, server.finish()


class TestIncrementalMatchesOneShot:
    def test_same_trace_same_outcome(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=24, rate=4000.0, seed=7)
        one_shot, incremental = _both_drives(
            tb2, models_tb2, lambda: generate_workload(spec), seed=7)

        assert len(incremental.requests) == len(one_shot.requests)
        by_id = {r.req_id: r for r in one_shot.requests}
        for r in incremental.requests:
            ref = by_id[r.req_id]
            assert r.state is ref.state
            assert r.worker == ref.worker
            assert r.completion_t == ref.completion_t
            assert r.latency == ref.latency
        assert incremental.n_batches == one_shot.n_batches
        assert incremental.end_time == one_shot.end_time > 0.0
        assert incremental.gpu_stats == one_shot.gpu_stats
        assert incremental.host_stats == one_shot.host_stats
        assert (incremental.health_transitions
                == one_shot.health_transitions)

    def test_all_shed_trace_reports_zero_end_time(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=12, rate=4000.0, seed=5)

        def unmeetable():
            # A deadline at the arrival instant: every predicted
            # completion misses it, so shed admission rejects them all.
            requests = generate_workload(spec)
            for request in requests:
                request.deadline = request.arrival
            return requests

        one_shot, incremental = _both_drives(tb2, models_tb2, unmeetable,
                                             seed=5)
        for outcome in (one_shot, incremental):
            assert all(r.state is RequestState.SHED
                       for r in outcome.requests)
            assert outcome.end_time == 0.0
            assert outcome.n_batches == 0

    def test_on_terminal_fires_per_request(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=12, rate=4000.0, seed=3)
        seen = []
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=3))
        server.begin(retain=False, on_terminal=seen.append)
        for request in generate_workload(spec):
            server.submit(request)
        server.sim.run()
        assert len(seen) == 12
        assert server.outstanding == 0
        assert all(r.state in (RequestState.DONE, RequestState.SHED,
                               RequestState.FAILED) for r in seen)
        # retain=False means finish() aggregates nothing.
        assert server.finish().requests == []


class TestRunTo:
    def test_clock_advances_exactly_to_barrier(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.begin()
        server.submit(big_request(0, arrival=0.5))
        server.sim.run_to(0.25)
        assert server.sim.now == 0.25
        assert server.outstanding == 1  # not yet arrived, still owed
        server.sim.run_to(10.0)
        assert server.outstanding == 0


class TestDrainQueued:
    def drain_setup(self, tb2, models_tb2):
        # One GPU, several giants: the first occupies the device, the
        # rest are queued when we drain.
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        server.begin()
        deadline = 60.0
        for i in range(4):
            req = big_request(i)
            req.deadline = deadline
            server.submit(req)
        server.sim.run_to(1e-4)  # in-flight: req 0; queued: 1..3
        return server

    def test_drained_work_is_migrated_with_arrival_intact(self, tb2,
                                                          models_tb2):
        server = self.drain_setup(tb2, models_tb2)
        moved = server.drain_queued()
        assert {r.req_id for r in moved} == {1, 2, 3}
        for r in moved:
            assert r.state is RequestState.MIGRATED
            assert r.arrival == 0.0
            assert r.deadline == 60.0
            assert r.worker is None and r.batch_id is None
        # The in-flight request still runs here to completion.
        assert server.outstanding == 1
        server.sim.run()
        assert server.outstanding == 0

    def test_drain_on_idle_server_is_empty(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.begin()
        assert server.drain_queued() == []


class TestEvacuate:
    def test_evacuate_cancels_in_flight_too(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        server.begin()
        for i in range(3):
            server.submit(big_request(i))
        server.sim.run_to(1e-4)
        moved = server.evacuate()
        assert {r.req_id for r in moved} == {0, 1, 2}
        assert all(r.state is RequestState.MIGRATED for r in moved)
        assert all(r.completions == 0 for r in moved)
        assert server.outstanding == 0
        # The node clock survives and nothing further fires for these.
        server.sim.run()
        assert all(r.state is RequestState.MIGRATED for r in moved)

    def test_migrated_plus_reserve_conserves(self, tb2, models_tb2):
        # A migrated view plus a terminal view elsewhere folds into one
        # conserved request — the exact pattern the cluster relies on.
        source = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        source.begin()
        for i in range(3):
            source.submit(big_request(i))
        source.sim.run_to(1e-4)
        moved = source.evacuate()

        target = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        target.begin()
        fresh = []
        for old in moved:
            req = Request(req_id=old.req_id, problem=old.problem,
                          arrival=old.arrival, deadline=old.deadline)
            fresh.append(req)
            target.submit(req)
        target.sim.run()

        views = list(moved) + fresh
        assert not find_conservation_violations(views)

    def test_predicted_backlog_empties_after_evacuate(self, tb2,
                                                      models_tb2):
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        server.begin()
        for i in range(3):
            server.submit(big_request(i))
        server.sim.run_to(1e-4)
        assert server.predicted_backlog() > 0
        server.evacuate()
        assert server.predicted_backlog() == pytest.approx(0.0, abs=1e-12)
