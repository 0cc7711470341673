"""Shared picklable task functions for fan-out callers.

Task functions submitted to :func:`repro.parallel.pmap` must be
importable module-level callables.  Callers that live outside the
installable package tree (test modules) cannot host such functions
reliably, so the ones they need live here.

Imports happen inside the functions: with warm worker caches the heavy
modules are already loaded, and the serial path pays the import exactly
once.
"""

from __future__ import annotations


def serve_rate_task(machine, scale: str, rate: float, n_requests: int,
                    n_gpus: int, seed: int,
                    workload_scale: str = "tiny") -> dict:
    """Serve one fixed-seed open-loop workload; return its report dict.

    One point of a rate sweep.  Models come from the per-process warm
    cache (:func:`repro.experiments.harness.models_for`), so workers
    never re-deploy.
    """
    from ..experiments.harness import models_for
    from ..obs import MetricsRegistry
    from ..serve import (BlasServer, ServerConfig, WorkloadSpec,
                         generate_workload, serve_report)

    models = models_for(machine, scale)
    spec = WorkloadSpec(arrival="poisson", rate=rate,
                        n_requests=n_requests, scale=workload_scale,
                        seed=seed)
    config = ServerConfig(n_gpus=n_gpus, seed=seed)
    server = BlasServer(machine, models, config,
                        metrics=MetricsRegistry())
    return serve_report(server.serve(generate_workload(spec)))
