"""Which public functions make up each layer, and what their wrappers count.

The layer names follow the program's modules (``sim.engine`` is
``repro.sim.engine`` and so on).  :func:`install` wraps them on a
:class:`~tracer.Tracer`; :func:`count_events` wraps only the engine's
run loops, to count simulated events without tracing.
"""

from __future__ import annotations

import contextlib

from tracer import Tracer

_RUN_LOOPS = ("run", "run_until", "run_done", "run_to")


@contextlib.contextmanager
def count_events():
    """Count the events every simulator fires while the block runs.

    Yields a one-element list holding the running total.  Each run loop
    returns the number of events it fired, so the wrapper only adds
    that number: one extra Python call per run-loop invocation.
    """
    from repro.sim.engine import Simulator

    total = [0]
    originals = {name: getattr(Simulator, name) for name in _RUN_LOOPS}

    def counted(func):
        def run_loop(*args, **kwargs):
            fired = func(*args, **kwargs)
            total[0] += fired
            return fired
        return run_loop

    try:
        for name, func in originals.items():
            setattr(Simulator, name, counted(func))
        yield total
    finally:
        for name, func in originals.items():
            setattr(Simulator, name, func)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer on ``tracer``."""
    from repro.cluster.autoscaler import Autoscaler
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.node import ClusterNode
    from repro.cluster.router import ClusterRouter
    from repro.core.predcache import PredictionCache
    from repro.core.select import select_tile
    from repro.core.tailbank import PercentileBank
    from repro.deploy import deploy
    from repro.runtime import scheduler
    from repro.runtime.routines import CoCoPeLiaLibrary
    from repro.serve.dispatcher import Dispatcher
    from repro.serve.server import BlasServer
    from repro.sim.device import GpuDevice
    from repro.sim.engine import Simulator
    from repro.sim.link import Direction, DuplexLink
    from repro.sim.noise import NoiseModel

    count, collect = tracer.count, tracer.collect

    # sim.engine: every run loop; the return value is the events fired.
    for name in _RUN_LOOPS:
        tracer.patch(Simulator, name, "sim.engine",
                     after=lambda a, k, r: (count("sim.engine.calls"),
                                            count("sim.engine.events", r)))

    # sim.link: transfers submitted to a duplex link.
    def link_submit(args, kwargs, result):
        nbytes = args[2] if len(args) > 2 else kwargs["nbytes"]
        count("sim.link.transfers")
        count("sim.link.bytes", nbytes)
    tracer.patch(DuplexLink, "submit", "sim.link", after=link_submit)

    # sim.device: device construction.  Each device's link statistics
    # and clock are kept (not the device, whose noise buffers are large)
    # so they can be read once the pass ends.
    def device_init(args, kwargs, result):
        device = args[0]
        count("sim.device.created")
        collect("devices", (device.link.stats(Direction.H2D),
                            device.link.stats(Direction.D2H), device.sim))
    tracer.patch(GpuDevice, "__init__", "sim.device", after=device_init)

    # sim.noise: the three factor draws (block refills happen inside).
    for name in ("duration_factor", "latency_factor", "rate_factor"):
        tracer.patch(NoiseModel, name, "sim.noise",
                     after=lambda a, k, r: count("sim.noise.calls"))

    # runtime.scheduler: building a tile pipeline is one scheduled
    # execution (the serving layer issues it without calling run()).
    for cls in (scheduler.GemmTileScheduler, scheduler.SyrkTileScheduler,
                scheduler.GemvTileScheduler, scheduler.AxpyTileScheduler):
        tracer.patch(cls, "__init__", "runtime.scheduler",
                     after=lambda a, k, r: count("runtime.scheduler.runs"))
        tracer.patch(cls, "run", "runtime.scheduler",
                     after=lambda a, k, r: count("runtime.scheduler.kernels",
                                                 r.kernels))

    # runtime.routines: library entry points.  A call without an
    # explicit tile asks the prediction layer for one.
    def routine_call(args, kwargs):
        count("runtime.routines.calls")
        if kwargs.get("tile_size") is None:
            count("core.predcache.lookups")
    for name in ("gemm", "gemv", "syrk", "axpy"):
        tracer.patch(CoCoPeLiaLibrary, name, "runtime.routines",
                     before=routine_call, on_error="runtime.routines.failed")

    # core.select: a call with neither a cache nor a percentile
    # evaluates the model over every candidate tile (a cache miss).
    def select_call(args, kwargs, result):
        count("core.select.calls")
        if kwargs.get("cache") is None and kwargs.get("percentile") is None:
            count("core.select.sweeps")
    tracer.patch_function(select_tile, "core.select", after=select_call)
    tracer.patch(PredictionCache, "choice", "core.predcache")
    tracer.patch(PredictionCache, "predict", "core.predcache")

    # core.tailbank
    tracer.patch(PercentileBank, "__init__", "core.tailbank",
                 after=lambda a, k, r: collect("tail_banks", a[0]))
    tracer.patch(PercentileBank, "observe", "core.tailbank",
                 after=lambda a, k, r: count("core.tailbank.observes"))
    for name in ("quantile", "multiplier"):
        tracer.patch(PercentileBank, name, "core.tailbank",
                     after=lambda a, k, r: count("core.tailbank.lookups"))

    # serve.dispatcher
    tracer.patch(Dispatcher, "__init__", "serve.dispatcher",
                 after=lambda a, k, r: collect("dispatchers", a[0]))
    tracer.patch(Dispatcher, "place", "serve.dispatcher",
                 after=lambda a, k, r: count("serve.dispatcher.places"))
    tracer.patch(Dispatcher, "admit", "serve.dispatcher",
                 after=lambda a, k, r: (count("serve.dispatcher.admits"),
                                        count(f"serve.dispatcher.{r}")))
    tracer.patch(Dispatcher, "predict_gpu", "serve.dispatcher",
                 after=lambda a, k, r: count("core.predcache.lookups"))
    tracer.patch(Dispatcher, "predict_host", "serve.dispatcher")

    # serve.server: the one-shot and the incremental entry points.
    for name in ("serve", "begin", "submit", "finish", "drain_queued",
                 "evacuate"):
        tracer.patch(BlasServer, name, "serve.server")

    # cluster layers.  Every node is driven to each epoch barrier in
    # turn, so a change of barrier time marks a new epoch.
    last_barrier = [None]

    def barrier(args, kwargs, result):
        t = args[1] if len(args) > 1 else kwargs["time"]
        if t != last_barrier[0]:
            last_barrier[0] = t
            count("cluster.coordinator.epochs")
    tracer.patch(ClusterRouter, "route", "cluster.router",
                 after=lambda a, k, r: count("cluster.router.routes"))
    tracer.patch(Autoscaler, "decide", "cluster.autoscaler",
                 after=lambda a, k, r: (
                     count("cluster.autoscaler.decisions"),
                     count("cluster.autoscaler.actions",
                           int(r is not None))))
    for name in ("observe_arrival", "observe_service"):
        tracer.patch(Autoscaler, name, "cluster.autoscaler")
    tracer.patch(ClusterCoordinator, "run", "cluster.coordinator")
    tracer.patch(ClusterNode, "run_to", "cluster.coordinator", after=barrier)
    for name in ("submit", "drain", "evacuate"):
        tracer.patch(ClusterNode, name, "cluster.coordinator")

    # deploy: model deployment (set-up).
    tracer.patch_function(deploy, "deploy")
