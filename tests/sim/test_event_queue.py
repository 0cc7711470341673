"""Property and contract tests for the simulator's event queue.

Every committed trace and document rests on the binary-heap queue
firing events in exactly ``(time, seq)`` order, whichever run loop
drains it: :meth:`Simulator.run` and :meth:`Simulator.run_to` pop one
timestamp per batch, :meth:`Simulator.run_until` and
:meth:`Simulator.run_done` single-step.  The property tests drive the
simulator against a sorted-list reference model under arbitrary
schedule/step interleavings, duplicate timestamps and cancellations;
the contract tests pin what each run loop returns and how it guards
against runaway cycles and re-entrance.

Hypothesis ships in the test environment; skip cleanly where it
doesn't rather than growing a dependency.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator

# Timestamps a simulator actually produces: non-negative floats over
# wildly different magnitudes (nanosecond transfer chains to watchdog
# deadlines), with duplicates made likely by rounding to few digits.
times_strategy = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
            lambda t: round(t, 2)),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    min_size=0, max_size=200)

# Interleaved operations: schedule the next pending delay, or step.
ops_strategy = st.lists(st.sampled_from(["push", "step"]),
                        min_size=0, max_size=300)

#: Far enough out that no test event lies beyond it.
HORIZON = 1e12


def schedule_all(sim, times, fired):
    """Schedule one recorder per time; returns the handles in push order."""
    return [sim.schedule_at(t, lambda i=i: fired.append((sim.now, i)))
            for i, t in enumerate(times)]


def reference(times, keep=None):
    """``(time, index)`` pairs in the order the queue must fire them."""
    return sorted((t, i) for i, t in enumerate(times)
                  if keep is None or keep[i])


def step(sim, fired):
    """Fire exactly one live event (if any) by single-stepping."""
    before = len(fired)
    return sim.run_until(lambda: len(fired) > before)


class _Never:
    done = False


def drain(sim, loop, max_events=50_000_000):
    """Run ``sim`` to exhaustion through the named run loop."""
    if loop == "run":
        return sim.run(max_events=max_events)
    if loop == "run_until":
        return sim.run_until(lambda: False, max_events=max_events)
    if loop == "run_done":
        return sim.run_done(_Never(), max_events=max_events)
    return sim.run_to(HORIZON, max_events=max_events)


LOOPS = ["run", "run_until", "run_done", "run_to"]


class TestAgainstReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(times=times_strategy)
    def test_drain_matches_sorted_reference(self, times):
        sim, fired = Simulator(), []
        schedule_all(sim, times, fired)
        assert sim.run() == len(times)
        assert fired == reference(times)
        assert sim.peek_next_time() is None and sim.pending_events == 0

    @settings(max_examples=200, deadline=None)
    @given(delays=times_strategy, ops=ops_strategy)
    def test_interleaved_schedule_and_step_matches_reference(self, delays,
                                                             ops):
        sim, fired = Simulator(), []
        pending = iter(enumerate(delays))
        model = []
        for op in ops:
            if op == "push":
                nxt = next(pending, None)
                if nxt is None:
                    continue
                i, delay = nxt
                model.append((sim.now + delay, i))
                sim.schedule(delay, lambda i=i: fired.append((sim.now, i)))
            else:
                expect = min(model, default=None)
                assert step(sim, fired) == (expect is not None)
                if expect is not None:
                    assert fired[-1] == expect
                    model.remove(expect)
            assert sim.pending_events == len(model)
        sim.run()
        assert fired[len(fired) - len(model):] == sorted(model)

    @settings(max_examples=150, deadline=None)
    @given(times=times_strategy,
           cut=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_run_to_fires_exactly_the_prefix_up_to_the_cut(self, times,
                                                           cut):
        sim, fired = Simulator(), []
        schedule_all(sim, times, fired)
        expect = reference(times)
        head = [e for e in expect if e[0] <= cut]
        assert sim.run_to(cut) == len(head)
        assert fired == head
        assert sim.now == cut
        sim.run()
        assert fired == expect

    @settings(max_examples=100, deadline=None)
    @given(times=times_strategy)
    def test_peek_next_time_agrees_with_next_fired(self, times):
        sim, fired = Simulator(), []
        schedule_all(sim, times, fired)
        while True:
            head = sim.peek_next_time()
            if not step(sim, fired):
                assert head is None
                break
            assert fired[-1][0] == head == sim.now

    @settings(max_examples=150, deadline=None)
    @given(times=times_strategy, data=st.data())
    def test_cancelled_events_are_skipped_in_every_position(self, times,
                                                            data):
        keep = data.draw(st.lists(st.booleans(), min_size=len(times),
                                  max_size=len(times)))
        sim, fired = Simulator(), []
        for handle, live in zip(schedule_all(sim, times, fired), keep):
            if not live:
                handle.cancel()
        assert sim.pending_events == sum(keep)
        assert sim.run() == sum(keep)
        assert fired == reference(times, keep)

    @settings(max_examples=100, deadline=None)
    @given(times=times_strategy,
           chains=st.lists(st.integers(min_value=0, max_value=3),
                           max_size=200))
    def test_batch_drain_and_single_step_fire_the_same_sequence(
            self, times, chains):
        # Callbacks that schedule zero-delay follow-ups land behind the
        # batch in flight; batch drain and single-step must agree.
        def replay(loop):
            sim, order = Simulator(), []

            def fire(i, depth):
                order.append((sim.now, i, depth))
                if depth:
                    sim.schedule(0.0, lambda: fire(i, depth - 1))

            for i, t in enumerate(times):
                depth = chains[i] if i < len(chains) else 0
                sim.schedule_at(t, lambda i=i, d=depth: fire(i, d))
            drain(sim, loop)
            return order

        baseline = replay("run")
        for loop in LOOPS[1:]:
            assert replay(loop) == baseline


class TestFifoWithinTimestamp:
    def test_duplicate_timestamps_fire_in_scheduling_order(self):
        sim, fired = Simulator(), []
        schedule_all(sim, [1.0] * 50, fired)
        sim.run()
        assert [i for _, i in fired] == list(range(50))

    def test_duplicates_interleaved_with_other_times(self):
        sim, fired = Simulator(), []
        times = [2.0, 1.0, 2.0, 2.0, 2.0, 3.0, 2.0, 2.0, 2.0, 2.0]
        schedule_all(sim, times, fired)
        sim.run()
        dup = [i for i, t in enumerate(times) if t == 2.0]
        assert fired[0] == (1.0, 1)
        assert [i for _, i in fired[1:-1]] == dup
        assert fired[-1] == (3.0, 5)

    def test_schedule_and_schedule_at_share_one_sequence(self):
        sim, order = Simulator(), []
        sim.schedule(2.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.schedule(2.0, lambda: order.append("c"))
        sim.schedule_at(2.0, lambda: order.append("d"))
        sim.run()
        assert order == list("abcd")


class TestLargeAndSparseQueues:
    def test_thousands_of_shuffled_events_fire_in_time_order(self):
        times = [0.001 * (i // 3) for i in range(3000)]
        random.Random(7).shuffle(times)
        sim, fired = Simulator(), []
        schedule_all(sim, times, fired)
        assert sim.run() == 3000
        assert fired == reference(times)

    def test_refill_after_drain_keeps_fifo_at_the_current_time(self):
        sim, fired = Simulator(), []
        schedule_all(sim, [0.5, 1.0], fired)
        sim.run()
        assert sim.now == 1.0
        order = []
        for name in "xyz":
            sim.schedule(0.0, lambda n=name: order.append((sim.now, n)))
        sim.run()
        assert order == [(1.0, "x"), (1.0, "y"), (1.0, "z")]

    def test_far_future_event_fires_at_its_time(self):
        sim, fired = Simulator(), []
        schedule_all(sim, [1e9], fired)
        assert sim.run() == 1
        assert fired == [(1e9, 0)] and sim.now == 1e9

    def test_earlier_event_scheduled_after_peek_fires_first(self):
        sim, fired = Simulator(), []
        schedule_all(sim, [1e9, 10.0], fired)
        assert sim.peek_next_time() == 10.0
        sim.schedule_at(5.0, lambda: fired.append((sim.now, "early")))
        assert sim.peek_next_time() == 5.0
        sim.run()
        assert fired == [(5.0, "early"), (10.0, 1), (1e9, 0)]

    def test_timestamps_one_ulp_apart_are_distinct_batches(self):
        # Ties are exact float equality: an event one ulp later is a
        # separate batch even when it was scheduled first.
        sim, order = Simulator(), []
        later = math.nextafter(1.0, 2.0)
        sim.schedule_at(later, lambda: order.append(("late", sim.now)))
        sim.schedule_at(1.0, lambda: (
            order.append(("on-time", sim.now)),
            sim.schedule(0.0, lambda: order.append(("chained", sim.now)))))
        sim.run()
        assert order == [("on-time", 1.0), ("chained", 1.0),
                         ("late", later)]


class TestRunLoopContract:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_returns_number_fired_excluding_cancelled(self, loop):
        sim, fired = Simulator(), []
        handles = schedule_all(sim, [1.0, 2.0, 2.0, 3.0, 4.0], fired)
        handles[2].cancel()
        handles[4].cancel()
        assert drain(sim, loop) == 3
        assert [i for _, i in fired] == [0, 1, 3]

    @pytest.mark.parametrize("loop", LOOPS)
    def test_event_budget_stops_a_scheduling_cycle(self, loop):
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        with pytest.raises(SimulationError, match="event budget"):
            drain(sim, loop, max_events=100)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_reentrant_call_rejected(self, loop):
        sim = Simulator()
        sim.schedule(1.0, lambda: drain(sim, loop))
        with pytest.raises(SimulationError, match="re-entrant"):
            drain(sim, loop)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_usable_again_after_a_callback_raises(self, loop):
        sim, fired = Simulator(), []

        def boom():
            raise ValueError("callback failed")

        sim.schedule(1.0, boom)
        with pytest.raises(ValueError):
            drain(sim, loop)
        sim.schedule(1.0, lambda: fired.append(sim.now))
        assert drain(sim, loop) == 1
        assert fired == [2.0]

    @pytest.mark.parametrize("loop", LOOPS)
    def test_empty_queue_fires_nothing(self, loop):
        sim = Simulator()
        assert drain(sim, loop) == 0
        assert sim.pending_events == 0


class TestBoundedRuns:
    def test_run_to_leaves_later_events_pending(self):
        sim, fired = Simulator(), []
        schedule_all(sim, [1.0, 2.0, 7.0], fired)
        assert sim.run_to(5.0) == 2
        assert sim.now == 5.0
        assert sim.pending_events == 1 and sim.peek_next_time() == 7.0

    def test_run_to_includes_events_exactly_at_the_target(self):
        sim, fired = Simulator(), []
        schedule_all(sim, [3.0, 3.0, math.nextafter(3.0, 4.0)], fired)
        assert sim.run_to(3.0) == 2
        assert [i for _, i in fired] == [0, 1]

    def test_run_to_rejects_a_target_in_the_past(self):
        sim = Simulator()
        sim.run_to(4.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.run_to(3.0)

    def test_relative_schedule_after_run_to_counts_from_the_target(self):
        sim, fired = Simulator(), []
        sim.run_to(5.0)
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [6.0]

    def test_run_done_observes_the_handle_between_equal_time_events(self):
        sim = Simulator()
        handle, order = _Never(), []

        def finish():
            order.append("finish")
            handle.done = True

        sim.schedule(1.0, finish)
        sim.schedule(1.0, lambda: order.append("after"))
        assert sim.run_done(handle) == 1
        assert order == ["finish"] and sim.pending_events == 1

    def test_advance_to_rejected_during_a_run(self):
        sim, errors = Simulator(), []

        def jump():
            try:
                sim.advance_to(10.0)
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, jump)
        sim.run()
        assert errors and "during a run" in errors[0]
        assert sim.now == 1.0


def test_simulator_has_no_engine_selection_arguments():
    for kwargs in ({"scheduler": "calendar"}, {"mode": "fluid"}):
        with pytest.raises(TypeError):
            Simulator(**kwargs)
