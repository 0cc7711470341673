"""Same-timestamp ordering contracts, pinned as regressions.

The simulator resolves equal-time events in scheduling (seq) order.
Several serving-layer behaviours lean on that deliberately — the
ordering comments in ``repro/serve/server.py`` reference this module:

* the batch watchdog is scheduled at launch, so on an exact deadline
  tie the timeout fires before the stream completion and the batch
  times out (the ``settled`` guard silences the loser);
* lifecycle faults are scheduled before arrivals, so a device failure
  at exactly an arrival instant is visible to that arrival's placement
  decision;
* equal-time arrivals dispatch in ``(arrival, req_id)`` order.

The tie resolution is a property of the ``(time, seq)`` queue key.
"""

import numpy as np
import pytest

from repro.core import gemm_problem
from repro.serve import BlasServer, Request, ServerConfig
from repro.sim import Simulator
from repro.sim.faults import DeviceFailure, FaultPlan


@pytest.fixture
def sim():
    return Simulator()


class TestFifoWithinTimestamp:
    def test_equal_time_events_fire_in_scheduling_order(self, sim):
        order = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == list("abcde")

    def test_zero_delay_chain_runs_after_the_current_batch(self, sim):
        # An event scheduled *during* a timestamp's batch at that same
        # timestamp joins the back of the line, not the middle.
        order = []
        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("chained"))
        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "chained"]

    def test_cancellation_within_a_batch_is_honoured(self, sim):
        # An earlier event at the same timestamp cancels a later one:
        # the victim must be skipped even though both were popped into
        # the same batch.
        fired = []
        ev_victim = None

        def killer():
            fired.append("killer")
            ev_victim.cancel()

        sim.schedule(1.0, killer)
        ev_victim = sim.schedule(1.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["killer", "after"]

    def test_run_until_observes_between_equal_time_events(self, sim):
        # run_until's predicate must be evaluated between events at one
        # timestamp (it single-steps; no batch drain).
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.run_until(lambda: bool(fired))
        assert fired == ["a"]


class TestWatchdogDeadlineTie:
    """The server's launch-time watchdog pattern, reduced to the sim.

    ``_launch_on_device`` schedules the watchdog before any completion
    can be scheduled, so on an exact deadline tie the watchdog holds
    the lower seq; the ``settled`` flag then makes the completion a
    no-op.  If either half of that contract breaks, a timed-out batch
    and a completed batch become schedule-dependent.
    """

    def test_watchdog_scheduled_first_wins_the_tie(self, sim):
        outcome = []
        settled = []

        def timeout():
            if not settled:
                settled.append(True)
                outcome.append("timeout")

        def completion():
            if not settled:
                settled.append(True)
                outcome.append("completed")

        sim.schedule(1.0, timeout)        # watchdog, at launch
        sim.schedule(1.0, completion)     # stream done, same instant
        sim.run()
        assert outcome == ["timeout"]

    def test_earlier_completion_cancels_the_watchdog(self, sim):
        outcome = []
        watchdog = sim.schedule(2.0, lambda: outcome.append("timeout"))

        def completion():
            outcome.append("completed")
            watchdog.cancel()

        sim.schedule(1.0, completion)
        sim.run()
        assert outcome == ["completed"]


class TestLifecycleArrivalTie:
    def _request(self, req_id, arrival):
        return Request(req_id=req_id,
                       problem=gemm_problem(512, 512, 512, np.float64),
                       arrival=arrival)

    def test_failure_at_arrival_instant_is_seen_by_placement(
            self, tb2, models_tb2):
        # gpu0 dies at exactly t=0.005; the request arriving at that
        # same instant must be placed against the post-fault health
        # state — it never touches the dead device and needs no
        # requeue.  If arrivals fired first, the request would launch
        # on gpu0 and be drained back out.
        t = 0.005
        plan = FaultPlan(name="tie", lifecycle=(
            DeviceFailure(device=0, onset=t),))
        server = BlasServer(tb2.with_faults(plan), models_tb2,
                            ServerConfig(n_gpus=1, seed=0))
        outcome = server.serve([self._request(0, t)])
        (req,) = outcome.requests
        assert req.completion_t is not None
        assert req.worker != "gpu0"
        assert req.requeues == 0

    def test_equal_time_arrivals_dispatch_in_req_id_order(
            self, tb2, models_tb2):
        t = 0.002
        requests = [self._request(1, t), self._request(0, t)]
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, seed=0))
        outcome = server.serve(requests)
        by_id = {r.req_id: r for r in outcome.requests}
        assert by_id[0].enqueue_t == by_id[1].enqueue_t == t
        # req 0 is admitted first, so its service can never start after
        # its equal-time sibling's.
        assert by_id[0].first_t <= by_id[1].first_t
