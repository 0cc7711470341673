"""The versioned ``repro.serve/v1`` serving report.

Shape (validated by :func:`validate_serve_json`):

.. code-block:: text

    {
      "schema": "repro.serve/v1",
      "context": {...},                     # caller-supplied (CLI args)
      "report": {
        "requests": {total, completed, shed, failed, downgraded,
                     fallbacks, batched, slo: {with_deadline, met,
                     missed, attainment,
                     downgraded: {with_deadline, met, missed}?}},
        "throughput_rps": float, "makespan": float,
        "latency": {n, mean, min, max, p50, p95, p99},
        "wait": {...same...},
        "prediction": {n, mean_abs_pct_error, p95_abs_pct_error,
                       tail: {...}?} | null,
        "workers": [{worker, busy_seconds, utilization, batches,
                     requests, h2d_bytes, d2h_bytes, kernels,
                     locality_hits}, ...],   # gpus then host
        "resilience": {counters, stats, health, transitions},  # faulted
      },                                     # runs only (see below)
      "metrics": {counters, gauges, histograms},
    }

The optional ``resilience`` block appears only when the run carried an
active fault plan or the resilience machinery actually did something
(drains, hedges, breaker trips) — fault-free documents stay
byte-identical to pre-resilience servers.

SLO accounting judges each request against the deadline it *arrived*
with (:attr:`Request.slo_deadline`): a downgrade clears the scheduling
deadline but not the SLO, so downgraded requests count toward
``with_deadline`` and get their own ``slo.downgraded`` sub-block (only
when any exist — runs without downgrades keep their exact bytes).
``prediction.tail`` (percentile-admission runs only) carries the tail
bank's fitted quantiles and rejection counters.

Documents are emitted with ``sort_keys=True`` and a fixed float
representation (Python's repr), so the same seed produces the same
bytes — the property the determinism acceptance test pins.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..obs.schema import Schema
from ..obs.stats import latency_summary, percentiles
from .request import RequestState
from .server import ServeOutcome, WorkerStats

SERVE_SCHEMA_VERSION = "repro.serve/v1"


def _worker_dict(stats: WorkerStats, makespan: float) -> Dict[str, object]:
    util = stats.busy_seconds / makespan if makespan > 0 else 0.0
    return {
        "worker": stats.worker,
        "busy_seconds": stats.busy_seconds,
        "utilization": util,
        "batches": stats.batches,
        "requests": stats.requests,
        "h2d_bytes": stats.h2d_bytes,
        "d2h_bytes": stats.d2h_bytes,
        "kernels": stats.kernels,
        "locality_hits": stats.locality_hits,
    }


def serve_report(outcome: ServeOutcome) -> Dict[str, object]:
    """Aggregate one serving outcome into the report body."""
    requests = outcome.requests
    done = outcome.done_requests()
    makespan = outcome.end_time

    # Judged against slo_deadline, not the live deadline: a downgrade
    # clears `deadline` for scheduling, but the SLO the request arrived
    # with still counts (the pre-fix accounting silently dropped every
    # downgraded request from these stats).
    with_deadline = [r for r in requests if r.slo_deadline is not None]
    met = sum(1 for r in with_deadline if r.slo_met)
    missed = sum(1 for r in with_deadline if r.slo_met is False)
    downgraded_dl = [r for r in with_deadline if r.downgraded]

    latencies = [r.latency for r in done if r.latency is not None]
    waits = [r.wait for r in done if r.wait is not None]

    errors = []
    for r in done:
        if r.predicted_completion is not None and r.latency:
            predicted_latency = r.predicted_completion - r.arrival
            errors.append(100.0 * abs(predicted_latency - r.latency)
                          / r.latency)
    prediction: Optional[Dict[str, object]] = None
    if errors:
        prediction = {
            "n": len(errors),
            "mean_abs_pct_error": sum(errors) / len(errors),
            "p95_abs_pct_error": percentiles(errors, (95,))[0],
        }
    if outcome.tail is not None:
        # Percentile-admission runs surface the bank even when nothing
        # completed (all-shed); n=0 then marks the error stats absent.
        if prediction is None:
            prediction = {"n": 0}
        prediction["tail"] = outcome.tail

    workers: List[Dict[str, object]] = [
        _worker_dict(s, makespan) for s in outcome.gpu_stats
    ]
    workers.append(_worker_dict(outcome.host_stats, makespan))

    batch_sizes: Dict[int, int] = {}
    for r in done:
        if r.batch_id is not None:
            batch_sizes[r.batch_id] = batch_sizes.get(r.batch_id, 0) + 1
    coalesced = sum(1 for r in done
                    if r.batch_id is not None
                    and batch_sizes[r.batch_id] > 1)

    body: Dict[str, object] = {
        "requests": {
            "total": len(requests),
            "completed": len(done),
            "shed": sum(1 for r in requests
                        if r.state is RequestState.SHED),
            "failed": sum(1 for r in requests
                          if r.state is RequestState.FAILED),
            "downgraded": sum(1 for r in requests if r.downgraded),
            "fallbacks": sum(1 for r in requests if r.fallback),
            "batched": coalesced,
            "batches": outcome.n_batches,
            "slo": {
                "with_deadline": len(with_deadline),
                "met": met,
                "missed": missed,
                "attainment": (met / len(with_deadline)
                               if with_deadline else 1.0),
            },
        },
        "throughput_rps": len(done) / makespan if makespan > 0 else 0.0,
        "makespan": makespan,
        "latency": latency_summary(latencies) if latencies else None,
        "wait": latency_summary(waits) if waits else None,
        "prediction": prediction,
        "workers": workers,
    }
    if downgraded_dl:
        # Dedicated bucket so operators can see how the *downgraded*
        # population fared against the SLOs it arrived with.  Keyed in
        # only when downgrades happened: runs without them (and every
        # pre-fix document) keep their exact bytes.
        body["requests"]["slo"]["downgraded"] = {  # type: ignore[index]
            "with_deadline": len(downgraded_dl),
            "met": sum(1 for r in downgraded_dl if r.slo_met),
            "missed": sum(1 for r in downgraded_dl if r.slo_met is False),
        }
    resilience = _resilience_block(outcome)
    if resilience is not None:
        body["resilience"] = resilience
    return body


def _resilience_block(outcome: ServeOutcome) -> Optional[Dict[str, object]]:
    """The fault-domain accounting block, or None on clean runs.

    Emitted when the machine carried an active fault plan, or when the
    resilience machinery demonstrably acted (a hedging-enabled run with
    no faults still reports its hedges).  Plain fault-free runs omit
    the key entirely so their documents stay byte-identical to servers
    that predate fault domains.
    """
    stats = outcome.resilience_stats
    acted = stats is not None and any(stats.as_dict().values())
    if not outcome.faulted and not acted:
        return None
    return {
        "counters": (outcome.resilience.as_dict()
                     if outcome.resilience is not None else {}),
        "stats": stats.as_dict() if stats is not None else {},
        "health": list(outcome.health),
        "transitions": list(outcome.health_transitions),
    }


def serve_document(
    outcome: ServeOutcome,
    metrics: Optional[object] = None,
    context: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON document ``repro serve`` emits (schema v1)."""
    doc: Dict[str, object] = {
        "schema": SERVE_SCHEMA_VERSION,
        "context": dict(context or {}),
        "report": serve_report(outcome),
        "metrics": (metrics.as_dict() if metrics is not None
                    else {"counters": {}, "gauges": {}, "histograms": {}}),
    }
    validate_serve_json(doc)
    return doc


def dump_serve_document(doc: Dict[str, object]) -> str:
    """Canonical byte-stable rendering of a serve document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CHECK = Schema("serve")


def validate_tail_block(tail: object, path: str) -> None:
    """Validate a ``prediction.tail`` block of a serve document."""
    _CHECK.tail_block(tail, path)


def validate_serve_json(doc: object) -> None:
    """Check a serve document against schema v1; raise on mismatch.

    The error message carries the JSON path of the first offending
    field, so the CI smoke job reports precisely what drifted.
    """
    check = _CHECK
    check.value(doc, "$", dict)
    schema = check.expect(doc, "$", "schema", str)
    if schema != SERVE_SCHEMA_VERSION:
        check.fail("$.schema",
                   f"expected {SERVE_SCHEMA_VERSION!r}, got {schema!r}")
    check.expect(doc, "$", "context", dict)

    report = check.expect(doc, "$", "report", dict)
    requests = check.expect(report, "$.report", "requests", dict)
    for key in ("total", "completed", "shed", "failed", "downgraded",
                "fallbacks", "batched", "batches"):
        check.count(requests, "$.report.requests", key)
    slo = check.expect(requests, "$.report.requests", "slo", dict)
    for key in ("with_deadline", "met", "missed"):
        check.count(slo, "$.report.requests.slo", key)
    check.fraction(slo, "$.report.requests.slo", "attainment")
    if slo["met"] + slo["missed"] > slo["with_deadline"]:
        check.fail("$.report.requests.slo",
                   "met + missed exceeds with_deadline")
    if "downgraded" in slo:
        dpath = "$.report.requests.slo.downgraded"
        downgraded = check.expect(slo, "$.report.requests.slo", "downgraded",
                                  dict)
        for key in ("with_deadline", "met", "missed"):
            check.count(downgraded, dpath, key)
        if (downgraded["met"] + downgraded["missed"]
                > downgraded["with_deadline"]):
            check.fail(dpath, "met + missed exceeds with_deadline")
        if downgraded["with_deadline"] > slo["with_deadline"]:
            check.fail(dpath, "downgraded with_deadline exceeds the slo total")

    for key in ("throughput_rps", "makespan"):
        check.number(report, "$.report", key, minimum=0)
    check.latency_summary(report, "$.report", "latency")
    check.latency_summary(report, "$.report", "wait")
    prediction = check.expect(report, "$.report", "prediction", dict,
                              allow_none=True)
    if prediction is not None:
        if check.count(prediction, "$.report.prediction", "n") > 0:
            for key in ("mean_abs_pct_error", "p95_abs_pct_error"):
                check.number(prediction, "$.report.prediction", key)
        if "tail" in prediction:
            check.tail_block(prediction["tail"], "$.report.prediction.tail")

    workers = check.expect(report, "$.report", "workers", list)
    if not workers:
        check.fail("$.report.workers", "must list at least one worker")
    for i, worker in enumerate(workers):
        path = f"$.report.workers[{i}]"
        check.value(worker, path, dict)
        check.expect(worker, path, "worker", str)
        check.number(worker, path, "busy_seconds")
        # Summed busy time may overshoot the makespan by float rounding.
        util = check.number(worker, path, "utilization")
        if not 0.0 <= util <= 1.0 + 1e-9:
            check.fail(f"{path}.utilization",
                       f"must be in [0, 1], got {util}")
        for key in ("batches", "requests", "h2d_bytes", "d2h_bytes",
                    "kernels", "locality_hits"):
            check.expect(worker, path, key, int)

    if "resilience" in report:
        resilience = check.expect(report, "$.report", "resilience", dict)
        path = "$.report.resilience"
        for block in ("counters", "stats"):
            values = check.expect(resilience, path, block, dict)
            for key in values:
                check.count(values, f"{path}.{block}", key)
        health = check.expect(resilience, path, "health", list)
        for i, device in enumerate(health):
            dpath = f"{path}.health[{i}]"
            check.value(device, dpath, dict)
            check.expect(device, dpath, "index", int)
            state = check.expect(device, dpath, "state", str)
            if state not in ("healthy", "degraded", "failed", "recovering"):
                check.fail(f"{dpath}.state",
                           f"unknown health state {state!r}")
            check.number(device, dpath, "ewma_inflation")
        transitions = check.expect(resilience, path, "transitions", list)
        for i, tr in enumerate(transitions):
            tpath = f"{path}.transitions[{i}]"
            check.value(tr, tpath, dict)
            check.number(tr, tpath, "t", minimum=0)
            check.expect(tr, tpath, "device", int)
            check.expect(tr, tpath, "event", str)

    check.metrics_block(doc)
