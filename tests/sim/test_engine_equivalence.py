"""Engine reproducibility beyond the golden trace.

``tests/obs/test_golden_trace.py`` pins one noise-free dgemm event
stream, and ``tests/test_golden_documents.py`` pins the CLI documents.
This module covers what those leave out: a *noisy* tile sweep replays
event-for-event under the same seed, and a deep bidirectional chunk
storm on one duplex link conserves every byte, drains to the same
makespan on every run, and yields a trace that passes the structural
invariants, and contention arriving mid-storm is re-planned without
losing or reordering a transfer.
"""

from repro.obs import verify_trace
from repro.runtime.routines import CoCoPeLiaLibrary
from repro.sim import Direction, DuplexLink, LinkDirectionConfig, Simulator
from repro.sim.trace import TraceRecorder

_H2D = LinkDirectionConfig(latency=1e-5, bandwidth=8e9, bid_slowdown=1.3)
_D2H = LinkDirectionConfig(latency=1e-5, bandwidth=6e9, bid_slowdown=1.8)
_CHUNK = 8 << 20


def _trace_rows(trace):
    return [(ev.engine, ev.tag, ev.start, ev.end, ev.nbytes, ev.flops)
            for ev in trace.events]


def _storm(n_h2d: int, n_d2h: int, trace=None):
    """Submit chunk storms in both directions and run to completion."""
    sim = Simulator()
    link = DuplexLink(sim, _H2D, _D2H, trace=trace)
    for i in range(n_h2d):
        link.submit(Direction.H2D, _CHUNK, tag=f"h2d:X({i},0)")
    for i in range(n_d2h):
        link.submit(Direction.D2H, _CHUNK, tag=f"d2h:Y({i},0)")
    sim.run()
    return sim, link


def test_fig7_style_noisy_sweep_replays_exactly(tb2):
    # A fig7-shaped slice: one machine, noisy, several tile sizes —
    # the workload class behind the paper's performance figure.
    def sweep():
        lib = CoCoPeLiaLibrary(tb2, seed=13, trace=True)
        seconds, rows = [], []
        for t in (256, 512):
            res = lib.gemm(m=1024, n=1024, k=1024, tile_size=t)
            seconds.append(res.seconds)
            rows.extend(_trace_rows(lib.last_trace))
        return seconds, rows

    assert sweep() == sweep()


def test_contended_storm_conserves_every_byte():
    sim, link = _storm(200, 200)
    for d in Direction:
        stats = link.stats(d)
        assert stats.transfers == 200
        assert stats.bytes_moved == 200 * _CHUNK
    # Both directions contend for most of the run, so the makespan
    # exceeds the slower direction's uncontended byte time.
    assert sim.now > 200 * _CHUNK / _D2H.bandwidth


def test_mid_storm_contention_onset_conserves_and_slows_the_storm():
    # The opposite direction wakes up halfway through an H2D storm: the
    # link re-plans the in-flight transfer at the BTS rate, and nothing
    # is lost or double-counted across the re-plan.
    sim = Simulator()
    link = DuplexLink(sim, _H2D, _D2H)
    order = []
    for i in range(40):
        link.submit(Direction.H2D, _CHUNK,
                    on_complete=lambda i=i: order.append(i))
    t_mid = 20 * _CHUNK / _H2D.bandwidth
    sim.schedule_at(t_mid, lambda: link.submit(Direction.D2H, _CHUNK))
    sim.run()
    assert order == list(range(40))
    assert link.stats(Direction.H2D).transfers == 40
    assert link.stats(Direction.H2D).bytes_moved == 40 * _CHUNK
    assert link.stats(Direction.D2H).transfers == 1
    uncontended = 40 * (_H2D.latency + _CHUNK / _H2D.bandwidth)
    assert sim.now > uncontended


def test_same_size_storms_drain_to_equal_makespans():
    # A deep backlog in both directions: every chunk re-plans the
    # other side's rate, so any order-dependence would move the end.
    first, link = _storm(2000, 2000)
    second, _ = _storm(2000, 2000)
    assert link.stats(Direction.H2D).transfers == 2000
    assert link.stats(Direction.D2H).transfers == 2000
    assert first.now == second.now


def test_storm_trace_passes_invariants():
    trace = TraceRecorder()
    _storm(30, 10, trace=trace)
    assert len(trace.events) == 40
    verify_trace(trace)
