"""The benchmark's workloads: inputs, one measured pass, metrics, checks.

Each workload is built from the seed alone.  ``setup`` deploys the
models from cold and generates the inputs; ``fresh_inputs`` hands a
pass its own copy (serving mutates requests); ``run`` is the measured
call into the program; ``summarize`` turns a pass's outcome into the
simulated metrics, which must be identical for every pass of one seed;
``once`` adds simulated metrics that need extra, unmeasured runs;
``checks`` validates what the program produced; ``layer_metrics``
derives the simulated per-layer figures of a traced pass.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.blas.reference import ref_axpy, ref_gemm, ref_gemv, ref_syrk
from repro.blas.validation import assert_allclose_blas
from repro.cluster import (AutoscalerConfig, ClusterConfig,
                           ClusterCoordinator, ClusterWorkloadSpec,
                           cluster_document, cluster_report,
                           iter_cluster_workload, validate_cluster_json)
from repro.cluster.node import ClusterNode
from repro.core.params import Loc, axpy_problem, gemm_problem
from repro.core.select import candidate_tiles
from repro.errors import ReproError
from repro.experiments import harness
from repro.experiments import workloads as eval_sets
from repro.obs.profiler import profile_trace
from repro.obs.stats import percentiles
from repro.obs.verify import (find_conservation_violations,
                              find_request_violations, verify_trace)
from repro.runtime import CoCoPeLiaLibrary
from repro.serve import (BlasServer, ServerConfig, WorkloadSpec,
                         generate_workload, serve_document,
                         validate_serve_json)
from repro.serve.dispatcher import HOST_WORKER
from repro.serve.request import Request, RequestState
from repro.serve.workload import reference_time
from repro.sim.machine import get_testbed

H, D = Loc.HOST, Loc.DEVICE


def _geomean(values: List[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


# ---------------------------------------------------------------------------
# checks and measurements shared by the workloads
# ---------------------------------------------------------------------------

def _real_data_checks(machine, models, seed: int) -> List[str]:
    """Small library calls on real arrays, compared with reference BLAS."""
    rng = np.random.default_rng([seed, 11])
    lib = CoCoPeLiaLibrary(machine, models, seed=seed)
    errors: List[str] = []

    def compare(name, result, reference, depth):
        try:
            assert_allclose_blas(result, reference, reduction_depth=depth,
                                 context=f"{machine.name} {name}")
        except AssertionError as exc:
            errors.append(str(exc))

    for dtype in (np.float64, np.float32):
        a = rng.standard_normal((512, 640)).astype(dtype)
        b = rng.standard_normal((640, 384)).astype(dtype)
        c0 = rng.standard_normal((512, 384)).astype(dtype)
        c = c0.copy()
        lib.gemm(a=a, b=b, c=c, tile_size=256, alpha=1.5, beta=0.5)
        compare(f"{dtype.__name__} gemm", c,
                ref_gemm(a, b, c0, alpha=1.5, beta=0.5), 640)
        # A device-resident C comes back in RunResult.output.
        out = lib.gemm(a=a, b=b, c=c0.copy(), tile_size=128,
                       loc_b=D, loc_c=D)
        compare(f"{dtype.__name__} gemm, B and C on device", out.output,
                ref_gemm(a, b, c0), 640)
    x, y0 = rng.standard_normal(300_000), rng.standard_normal(300_000)
    y = y0.copy()
    lib.axpy(x=x, y=y, alpha=-2.0, tile_size=65_536)
    compare("daxpy", y, ref_axpy(x, y0, alpha=-2.0), 1)
    a, x, y0 = (rng.standard_normal((640, 512)), rng.standard_normal(512),
                rng.standard_normal(640))
    y = y0.copy()
    lib.gemv(a=a, x=x, y=y, tile_size=128)
    compare("dgemv", y, ref_gemv(a, x, y0), 512)
    a, c0 = rng.standard_normal((384, 256)), rng.standard_normal((384, 384))
    c = c0.copy()
    lib.syrk(a=a, c=c, tile_size=128)
    compare("dsyrk", np.tril(c), np.tril(ref_syrk(a, c0)), 256)
    return errors


def _traced_calls(machine, models, problems, seed: int):
    """Run ``problems`` on a tracing library and verify each event stream.

    Returns the violations found and the profiler's transfer/compute
    overlap fraction of every stream.
    """
    lib = CoCoPeLiaLibrary(machine, models, seed=seed, trace=True)
    errors, overlaps = [], []
    for problem in problems:
        harness.run_problem(lib, problem)
        try:
            verify_trace(lib.last_trace)
        except ReproError as exc:
            errors.append(f"{machine.name} {problem.describe()}: {exc}")
        overlaps.append(profile_trace(lib.last_trace).overlap_fraction)
    return errors, overlaps


def _tile_loss_pct(machine, models, problems) -> float:
    """Mean loss of the model's tile choice against the best fixed tile.

    Per problem: the simulated time at the tile the model picks over
    the best time of a sweep across every candidate tile, as a
    percentage.  The sweep runs on the noise-free machine, so the figure
    measures the model's choice rather than run-to-run jitter.
    """
    lib = CoCoPeLiaLibrary(machine.with_noise(0.0), models)
    losses = []
    for problem in problems:
        picked = harness.run_problem(lib, problem).seconds
        best = min(harness.run_problem(lib, problem, tile_size=t).seconds
                   for t in candidate_tiles(problem, models))
        losses.append(100.0 * (picked / min(best, picked) - 1.0))
    return float(np.mean(losses))


#: Tile sweep for the serving workloads' quick-scale models: full
#: offload and partial placements at quick-scale sizes.
QUICK_TILE_SWEEP = [
    gemm_problem(3072, 3072, 3072, np.float64),
    gemm_problem(4096, 4096, 4096, np.float64, D, D, H),
    gemm_problem(2048, 2048, 2048, np.float64, H, H, D),
    gemm_problem(3584, 3584, 3584, np.float32, H, D, H),
    gemm_problem(5120, 5120, 5120, np.float32, D, H, D),
    gemm_problem(6144, 6144, 6144, np.float32),
]


def _link_metrics(devices, gpu_seconds: float) -> Dict[str, float]:
    """Busy share of the link directions, from their DirectionStats.

    ``devices`` holds (h2d stats, d2h stats, clock) per created device.
    """
    busy = overlap = 0.0
    for device in devices:
        for stats in device[:2]:
            busy += stats.busy_time
            overlap += stats.bid_overlap_time
    return {
        "sim.link.busy_frac": busy / (2.0 * gpu_seconds),
        "sim.link.bid_overlap_frac": overlap / busy if busy else 0.0,
    }


def _served_metrics(requests: List[Request], node_of) -> Dict[str, float]:
    """Simulated metrics over the final copy of every served request.

    A request with a deadline that was shed or failed counts as a miss.
    Requests that ran alone in a GPU batch (batches are keyed per node
    by ``node_of``) give the simulated GFLOP/s and the prediction error.
    """
    done = [r for r in requests if r.state is RequestState.DONE]
    p50, p99 = percentiles([r.latency for r in done], (50, 99))
    with_deadline = [r for r in requests if r.slo_deadline is not None]
    batches: Dict[Tuple, List[Request]] = {}
    for r in done:
        if r.worker != HOST_WORKER:
            batches.setdefault((node_of(r), r.batch_id), []).append(r)
    alone = [m[0] for m in batches.values() if len(m) == 1]
    errors = [100.0 * abs(r.predicted_seconds - r.service_seconds)
              / r.service_seconds for r in alone]
    failed = sum(1 for r in requests if r.state is RequestState.FAILED)
    return {
        "n_completed": len(done),
        "n_failed": failed,
        "fail_frac": failed / len(requests),
        "success_frac": 1.0 - failed / len(requests),
        "n_shed": sum(1 for r in requests if r.state is RequestState.SHED),
        "sim_p50_ms": 1e3 * p50,
        "sim_p99_ms": 1e3 * p99,
        "slo_attainment": (sum(1 for r in with_deadline if r.slo_met)
                           / len(with_deadline)),
        "n_good": sum(1 for r in done if r.slo_met is not False),
        # gemm only: daxpy's GFLOP/s is a bandwidth figure near 1, so
        # with it the geomean would follow the seed's routine mix.
        "lib.gflops_geomean": _geomean(
            [r.problem.flops() / r.service_seconds / 1e9 for r in alone
             if r.problem.routine.name == "gemm"]),
        "lib.pred_err_pct": float(np.median(errors)),
        "gpu_batches": len(batches),
        "gpu_requests": sum(len(m) for m in batches.values()),
        "queue_wait_p99_ms": 1e3 * percentiles([r.wait for r in done],
                                               (99,))[0],
    }


def _pin_rates(requests: List[Request], chunks) -> List[Request]:
    """Stretch each chunk of a trace to its nominal length.

    ``chunks`` lists (count, rate) for consecutive runs of requests in
    arrival order.  Each run's arrivals are scaled about its start so it
    lasts exactly ``count / rate``; deadlines keep their slack.  The
    arrival process keeps its shape (bursts, order, ids), but a seed no
    longer changes the offered load, which near saturation would swing
    every latency and SLO figure by more than a change to the program.
    """
    start, prev, t0 = 0, 0.0, 0.0
    for count, rate in chunks:
        block = requests[start:start + count]
        last = block[-1].arrival
        scale = (count / rate) / (last - prev)
        for r in block:
            arrival = t0 + (r.arrival - prev) * scale
            if r.deadline is not None:
                r.deadline = arrival + (r.deadline - r.arrival)
            r.arrival = arrival
        start, prev, t0 = start + count, last, t0 + count / rate
    return requests


def _served_shapes(requests: List[Request]):
    """One problem per distinct shape the request list asks for."""
    shapes = {}
    for r in requests:
        shapes.setdefault(r.problem.signature(), r.problem)
    return [shapes[k] for k in sorted(shapes, key=repr)]


# ---------------------------------------------------------------------------
# lib-eval
# ---------------------------------------------------------------------------

class LibEval:
    """Closed loop, one caller: the paper's Section V-E evaluation set.

    d/sgemm at 25 square sizes in every operand placement, the
    equal-volume shape set, and daxpy in every placement, through
    ``CoCoPeLiaLibrary`` with runtime tile selection on both testbeds
    (395 problems each, paper-scale models).  Every problem is distinct,
    so tile selection misses every time.  The seed sets the library's
    noise seed and each call's deadline: the serving generator's law,
    a uniform [2, 8] slack times the model-free reference time, counted
    from the call's start.
    """

    name = "lib-eval"
    #: Per-layer metrics a traced run must find non-zero.
    loaded = ["sim.engine.events", "sim.link.transfers", "sim.link.busy_frac",
              "sim.device.created", "sim.noise.calls",
              "runtime.scheduler.runs", "runtime.scheduler.kernels",
              "runtime.routines.calls", "runtime.routines.failed",
              "core.select.sweeps", "deploy.self_s"]
    testbeds = ("testbed_i", "testbed_ii")
    #: ``lib.tile_loss_pct`` sweeps every candidate tile of a fixed
    #: subset of the set: a full-offload sweep of a 16K problem takes
    #: minutes, so the subset holds the smallest sizes, four placements.
    tile_sweep = [
        gemm_problem(4096, 4096, 4096, np.float64),
        gemm_problem(4608, 4608, 4608, np.float64, D, D, H),
        gemm_problem(4096, 4096, 4096, np.float32, H, D, H),
        gemm_problem(5120, 5120, 5120, np.float32, D, H, D),
    ]
    #: Calls run once more with tracing on, for the trace verifier and
    #: the overlap profile.
    traced = [
        gemm_problem(4096, 4096, 4096, np.float64),
        gemm_problem(4096, 4096, 4096, np.float32, D, D, H),
        axpy_problem(128 << 20, np.float64),
    ]

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.lib_seed = 1000 + seed

    def setup(self) -> None:
        self.machines = [get_testbed(n) for n in self.testbeds]
        self.models = [harness.models_for(m, "paper") for m in self.machines]
        problems = (eval_sets.gemm_evaluation_set("paper", np.float64)
                    + eval_sets.gemm_evaluation_set("paper", np.float32)
                    + eval_sets.daxpy_evaluation_set("paper"))
        slack = np.random.default_rng([self.seed, 3]).uniform(
            2.0, 8.0, size=len(problems) * len(self.machines))
        self.calls = [(i, p, float(s) * reference_time(p))
                      for (i, p), s in zip(
                          ((i, p) for i in range(len(self.machines))
                           for p in problems), slack)]

    def fresh_inputs(self):
        return self.calls

    def run(self, calls) -> list:
        """Every call in order; a call that raises is recorded, not fatal."""
        libs = [CoCoPeLiaLibrary(m, models, seed=self.lib_seed)
                for m, models in zip(self.machines, self.models)]
        results = []
        for i, problem, deadline in calls:
            try:
                results.append((harness.run_problem(libs[i], problem), None))
            except ReproError as exc:
                results.append((None, type(exc).__name__))
        return results

    def summarize(self, results) -> Dict[str, object]:
        ok = [(r, call[2]) for (r, _e), call in zip(results, self.calls)
              if r is not None]
        seconds = [r.seconds for r, _d in ok]
        p50, p99 = percentiles(seconds, (50, 99))
        met = sum(1 for r, deadline in ok if r.seconds <= deadline)
        busy = float(sum(seconds))
        failures = sorted(
            f"{self.testbeds[i]} {p.describe()}: {err}"
            for (r, err), (i, p, _d) in zip(results, self.calls)
            if r is None)
        return {
            "attempted": len(results),
            "failed": len(failures),
            "failures": failures,
            "n_completed": len(ok),
            "fail_frac": len(failures) / len(results),
            "success_frac": 1.0 - len(failures) / len(results),
            "lib.gflops_geomean": _geomean([r.gflops for r, _d in ok]),
            "lib.pred_err_pct": float(np.median(
                [100.0 * abs(r.predicted_seconds - r.seconds) / r.seconds
                 for r, _d in ok])),
            "sim_p50_ms": 1e3 * p50,
            "sim_p99_ms": 1e3 * p99,
            # Every call has a deadline; a call that raised missed it.
            "slo_attainment": met / len(results),
            # One caller runs the calls back to back on one node per
            # testbed, so the simulated makespan is the summed call time.
            "goodput_rps": met / busy,
            "cluster.node_s": busy,
        }

    def once(self) -> Dict[str, float]:
        return {"lib.tile_loss_pct": float(np.mean([
            _tile_loss_pct(machine, models, self.tile_sweep)
            for machine, models in zip(self.machines, self.models)]))}

    def checks(self, results) -> Tuple[List[str], Dict[str, float]]:
        errors, overlaps = [], []
        for machine, models in zip(self.machines, self.models):
            errors += _real_data_checks(machine, models, self.seed)
            errs, fracs = _traced_calls(machine, models, self.traced,
                                        self.lib_seed)
            errors += errs
            overlaps += fracs
        return errors, {"runtime.scheduler.overlap_frac":
                        float(np.mean(overlaps))}

    def layer_metrics(self, results, tracer) -> Dict[str, float]:
        # Each call owns its device and clock, which starts at zero.
        devices = tracer.collected.get("devices", [])
        return _link_metrics(devices, sum(d[2].now for d in devices))


# ---------------------------------------------------------------------------
# serve-burst-p99
# ---------------------------------------------------------------------------

class _Serving:
    """What the two serving workloads share: testbed II with quick-scale
    models, a request trace as input, and the same library checks."""

    def setup(self) -> None:
        self.machine = get_testbed("testbed_ii")
        self.models = harness.models_for(self.machine, "quick")
        self.requests = self.fresh_inputs()

    def once(self) -> Dict[str, float]:
        return {"lib.tile_loss_pct": _tile_loss_pct(
            self.machine, self.models, QUICK_TILE_SWEEP)}

    def _library_checks(self) -> Tuple[List[str], Dict[str, float]]:
        """Real-data calls, and traced calls on every served shape."""
        errors = _real_data_checks(self.machine, self.models, self.seed)
        errs, overlaps = _traced_calls(self.machine, self.models,
                                       _served_shapes(self.requests),
                                       self.seed)
        return errors + errs, {"runtime.scheduler.overlap_frac":
                               float(np.mean(overlaps))}


class ServeBurst(_Serving):
    """Open loop: bursty arrivals near saturation on one 4-GPU server.

    ``BlasServer.serve`` on testbed II (quick-scale models) with
    percentile-aware admission at p99 and, as ``repro serve`` gives
    it, a fresh tail bank per server.  Request shapes repeat, so tile
    selection hits its cache.  The seed draws the trace and the noise.
    """

    name = "serve-burst-p99"
    loaded = ["sim.engine.events", "sim.link.transfers", "sim.device.created",
              "sim.noise.calls", "runtime.scheduler.runs",
              "core.predcache.hit_ratio", "core.tailbank.observes",
              "core.tailbank.lookups", "core.tailbank.refits",
              "serve.dispatcher.places", "serve.dispatcher.admits",
              "serve.server.batches", "deploy.self_s"]
    n_gpus = 4
    rate = 2000.0
    n_requests = 10000
    burst_size = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = WorkloadSpec(arrival="bursty", rate=self.rate,
                                 n_requests=self.n_requests, seed=seed,
                                 burst_size=self.burst_size)
        self.config = ServerConfig(n_gpus=self.n_gpus,
                                   admission_percentile=99.0, seed=seed)

    def fresh_inputs(self) -> List[Request]:
        return _pin_rates(generate_workload(self.spec),
                          [(self.n_requests, self.rate)])

    def run(self, requests):
        return BlasServer(self.machine, self.models, self.config).serve(
            requests)

    def summarize(self, outcome) -> Dict[str, object]:
        requests = outcome.requests
        m = _served_metrics(requests, lambda r: 0)
        return dict(m, **{
            "attempted": len(requests),
            "failed": m["n_failed"],
            "failures": [],
            "goodput_rps": m["n_good"] / outcome.end_time,
            # One server holds one node for the makespan.
            "cluster.node_s": outcome.end_time,
        })

    def checks(self, outcome) -> Tuple[List[str], Dict[str, float]]:
        errors = []
        try:
            validate_serve_json(serve_document(outcome))
        except ReproError as exc:
            errors.append(f"serve document: {exc}")
        errors += [f"{inv}: {msg}" for inv, msg in
                   find_conservation_violations(outcome.requests)
                   + find_request_violations(outcome.requests)]
        library_errors, extra = self._library_checks()
        return errors + library_errors, extra

    def layer_metrics(self, outcome, tracer) -> Dict[str, float]:
        m = self.summarize(outcome)
        gpu_seconds = self.n_gpus * outcome.end_time
        busy = sum(s.busy_seconds for s in outcome.gpu_stats)
        return dict(_link_metrics(tracer.collected.get("devices", []),
                                  gpu_seconds), **{
            "serve.server.batches": outcome.n_batches,
            "serve.server.coalesce_ratio":
                m["gpu_requests"] / m["gpu_batches"],
            "serve.server.queue_wait_p99_ms": m["queue_wait_p99_ms"],
            "serve.server.gpu_busy_frac": busy / gpu_seconds,
        })


# ---------------------------------------------------------------------------
# cluster-phases
# ---------------------------------------------------------------------------

class _FinalCopies:
    """Records the last copy of each request submitted to a node.

    A migrated request is re-submitted as a fresh copy, so the last
    copy per id carries the request's final state.  Nodes keep no
    request objects, which is why this watches ``ClusterNode.submit``.
    """

    def __init__(self) -> None:
        self.requests: Dict[int, Request] = {}
        self.node: Dict[int, int] = {}
        self._original = None

    def __enter__(self):
        original = self._original = ClusterNode.submit
        requests, node = self.requests, self.node

        def submit(cluster_node, request):
            requests[request.req_id] = request
            node[request.req_id] = cluster_node.index
            return original(cluster_node, request)

        ClusterNode.submit = submit
        return self

    def __exit__(self, *exc) -> None:
        ClusterNode.submit = self._original


class ClusterPhases(_Serving):
    """Open loop: a steady phase, a surge and a lull on an autoscaled fleet.

    ``ClusterCoordinator`` with the predicted router and the autoscaler
    (2 to 8 nodes of 2 GPUs, 4 at start) on testbed II, mean-based
    admission.  The surge (2.5x the base rate) exceeds what the
    minimum fleet can serve.  Nodes run the serving layer through its
    incremental path and never consult a tail bank.  The seed draws the
    trace and the noise.
    """

    name = "cluster-phases"
    loaded = ["sim.engine.events", "sim.link.transfers", "sim.device.created",
              "sim.noise.calls", "runtime.scheduler.runs",
              "core.predcache.hit_ratio", "serve.dispatcher.places",
              "serve.server.batches", "cluster.router.routes",
              "cluster.autoscaler.decisions", "cluster.autoscaler.actions",
              "cluster.coordinator.epochs", "deploy.self_s"]
    rate = 1500.0
    n_requests = 6000
    burst_size = 8
    nodes, min_nodes, max_nodes, gpus_per_node = 4, 2, 8, 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = ClusterWorkloadSpec(rate=self.rate,
                                        n_requests=self.n_requests,
                                        seed=seed, burst_size=self.burst_size)
        self.server_config = ServerConfig(seed=seed)

    def cluster_config(self, autoscale: bool = True) -> ClusterConfig:
        return ClusterConfig(
            nodes=self.nodes if autoscale else self.min_nodes,
            gpus_per_node=self.gpus_per_node, router="predicted",
            autoscale=autoscale,
            autoscaler=AutoscalerConfig(min_nodes=self.min_nodes,
                                        max_nodes=self.max_nodes))

    def fresh_inputs(self) -> List[Request]:
        # The generator splits the trace into equal runs, one per phase,
        # the last taking the remainder.
        phases = self.spec.phases
        counts = [self.n_requests // len(phases)] * len(phases)
        counts[-1] += self.n_requests - sum(counts)
        return _pin_rates(list(iter_cluster_workload(self.spec)),
                          [(c, self.rate * m) for c, m in zip(counts, phases)])

    def run(self, requests, autoscale: bool = True):
        coordinator = ClusterCoordinator(
            self.machine, self.models, self.cluster_config(autoscale),
            self.server_config)
        with _FinalCopies() as final:
            outcome = coordinator.run(requests)
        return outcome, final

    def summarize(self, result) -> Dict[str, object]:
        outcome, final = result
        requests = [final.requests[k] for k in sorted(final.requests)]
        m = _served_metrics(requests, lambda r: final.node[r.req_id])
        node_s = sum((n.stopped_t if n.stopped_t is not None
                      else outcome.end_time) - n.provisioned_t
                     for n in outcome.nodes)
        return dict(m, **{
            "attempted": outcome.n_requests,
            "failed": m["n_failed"],
            "failures": [],
            "goodput_rps": m["n_good"] / outcome.end_time,
            "cluster.node_s": node_s,
            # What the cluster report says: met / (met + missed), which
            # leaves shed requests out.
            "report_slo_attainment": cluster_report(
                outcome)["fleet"]["requests"]["slo"]["attainment"],
        })

    def checks(self, result) -> Tuple[List[str], Dict[str, float]]:
        outcome, final = result
        errors = []
        try:
            validate_cluster_json(cluster_document(outcome))
        except ReproError as exc:
            errors.append(f"cluster document: {exc}")
        if not outcome.conservation_ok:
            errors.append(f"cluster conservation: {outcome.violations} "
                          f"({outcome.accounted}/{outcome.n_requests} "
                          "accounted)")
        if len(final.requests) != outcome.n_requests:
            errors.append(f"{len(final.requests)} of {outcome.n_requests} "
                          "requests reached a node")
        errors += [f"{inv}: {msg}" for inv, msg in
                   find_conservation_violations(final.requests.values())]
        library_errors, extra = self._library_checks()
        return errors + library_errors, extra

    def control_check(self) -> Dict[str, float]:
        """The minimum fleet without the autoscaler, on the same trace."""
        m = self.summarize(self.run(self.fresh_inputs(), autoscale=False))
        return {"slo_attainment": m["slo_attainment"],
                "shed_frac": m["n_shed"] / m["attempted"]}

    def layer_metrics(self, result, tracer) -> Dict[str, float]:
        outcome, _final = result
        m = self.summarize(result)
        nodes = [n.as_dict() for n in outcome.nodes]
        gpu_seconds = self.gpus_per_node * m["cluster.node_s"]
        routes = tracer.counts.get("cluster.router.routes", 0)
        return dict(_link_metrics(tracer.collected.get("devices", []),
                                  gpu_seconds), **{
            "serve.server.batches": sum(n["batches"] for n in nodes),
            "serve.server.coalesce_ratio":
                m["gpu_requests"] / m["gpu_batches"],
            "serve.server.queue_wait_p99_ms": m["queue_wait_p99_ms"],
            "serve.server.gpu_busy_frac":
                sum(n["busy_seconds"] for n in nodes) / gpu_seconds,
            "cluster.router.spill_ratio":
                outcome.spills / routes if routes else 0.0,
            "cluster.autoscaler.nodes_provisioned": len(outcome.nodes),
            "cluster.coordinator.migrations": outcome.migrations,
        })


WORKLOADS = {w.name: w for w in (LibEval, ServeBurst, ClusterPhases)}
