"""The versioned ``repro.cluster/v1`` fleet report.

Shape (validated by :func:`validate_cluster_json`):

.. code-block:: text

    {
      "schema": "repro.cluster/v1",
      "context": {...},                     # caller-supplied (CLI args)
      "report": {
        "fleet": {
          "requests": {total, completed, shed, failed, migrations,
                       slo: {met, missed, attainment}},
          "latency": {n, mean, min, max, p50, p95, p99} | null,
          "throughput_rps": float, "makespan": float,
          "nodes_provisioned": int, "nodes_final": int,
          "prediction": {tail: {...}}?,   # percentile-admission runs
        },
        "nodes": [{node, state, provisioned_t, available_t, stopped_t,
                   routed, completed, shed, failed, migrated_out,
                   slo: {met, missed}, latency | null, busy_seconds,
                   batches}, ...],
        "scaling": {events: [{t, action, node?, reason}, ...],
                    scale_ups, scale_downs, kills},
        "routing": {policy, spills},
        "conservation": {ok, accounted, conserved, violations: [...]},
      },
    }

Like the serve document: emitted with ``sort_keys=True`` and repr
floats, so one seed produces one byte sequence — the property the
cluster determinism smoke pins with ``cmp``.  The latency/percentile
math is :mod:`repro.obs.stats`, the same code path as ``repro.serve/v1``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..obs.schema import Schema
from ..obs.stats import latency_summary
from .coordinator import ClusterOutcome
from .router import ROUTER_POLICIES

CLUSTER_SCHEMA_VERSION = "repro.cluster/v1"


def cluster_report(outcome: ClusterOutcome) -> Dict[str, object]:
    """Aggregate one cluster run into the report body."""
    nodes = outcome.nodes
    completed = sum(n.completed for n in nodes)
    shed = sum(n.shed for n in nodes)
    failed = sum(n.failed for n in nodes)
    met = sum(n.slo_met for n in nodes)
    missed = sum(n.slo_missed for n in nodes)
    latencies: List[float] = []
    for n in nodes:
        latencies.extend(n.latencies)
    makespan = outcome.end_time
    events = outcome.scale_events
    fleet: Dict[str, object] = {
        "requests": {
            "total": outcome.n_requests,
            "completed": completed,
            "shed": shed,
            "failed": failed,
            "migrations": outcome.migrations,
            "slo": {
                "met": met,
                "missed": missed,
                "attainment": (met / (met + missed)
                               if met + missed else 1.0),
            },
        },
        "latency": latency_summary(latencies) if latencies else None,
        "throughput_rps": (completed / makespan if makespan > 0
                           else 0.0),
        "makespan": makespan,
        "nodes_provisioned": len(nodes),
        "nodes_final": sum(1 for n in nodes if n.state != "stopped"),
    }
    if outcome.tail_snapshot is not None:
        # Keyed in only on percentile-admission runs, so mean-mode
        # cluster documents keep their exact pre-tail bytes.
        fleet["prediction"] = {"tail": outcome.tail_snapshot}
    return {
        "fleet": fleet,
        "nodes": [n.as_dict() for n in nodes],
        "scaling": {
            "events": events,
            "scale_ups": sum(1 for e in events if e["action"] == "up"),
            "scale_downs": sum(1 for e in events if e["action"] == "down"),
            "kills": sum(1 for e in events if e["action"] == "kill"),
        },
        "routing": {
            "policy": outcome.router_policy,
            "spills": outcome.spills,
        },
        "conservation": {
            "ok": outcome.conservation_ok,
            "accounted": outcome.accounted,
            "conserved": outcome.conserved,
            "violations": [message for _inv, message in outcome.violations],
        },
    }


def cluster_document(
    outcome: ClusterOutcome,
    context: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON document ``repro cluster`` emits (schema v1)."""
    doc: Dict[str, object] = {
        "schema": CLUSTER_SCHEMA_VERSION,
        "context": dict(context or {}),
        "report": cluster_report(outcome),
    }
    validate_cluster_json(doc)
    return doc


def dump_cluster_document(doc: Dict[str, object]) -> str:
    """Canonical byte-stable rendering of a cluster document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CHECK = Schema("cluster")


def validate_cluster_json(doc: object) -> None:
    """Check a cluster document against schema v1; raise on mismatch."""
    check = _CHECK
    check.value(doc, "$", dict)
    schema = check.expect(doc, "$", "schema", str)
    if schema != CLUSTER_SCHEMA_VERSION:
        check.fail("$.schema",
                   f"expected {CLUSTER_SCHEMA_VERSION!r}, got {schema!r}")
    check.expect(doc, "$", "context", dict)

    report = check.expect(doc, "$", "report", dict)

    fleet = check.expect(report, "$.report", "fleet", dict)
    requests = check.expect(fleet, "$.report.fleet", "requests", dict)
    for key in ("total", "completed", "shed", "failed", "migrations"):
        check.count(requests, "$.report.fleet.requests", key)
    slo = check.expect(requests, "$.report.fleet.requests", "slo", dict)
    for key in ("met", "missed"):
        check.count(slo, "$.report.fleet.requests.slo", key)
    check.fraction(slo, "$.report.fleet.requests.slo", "attainment")
    total = requests["total"]
    if requests["completed"] + requests["shed"] + requests["failed"] > total:
        check.fail("$.report.fleet.requests",
                   "completed + shed + failed exceeds total")
    check.latency_summary(fleet, "$.report.fleet", "latency")
    for key in ("throughput_rps", "makespan"):
        check.number(fleet, "$.report.fleet", key, minimum=0)
    provisioned = check.count(fleet, "$.report.fleet", "nodes_provisioned")
    final = check.count(fleet, "$.report.fleet", "nodes_final")
    if final > provisioned:
        check.fail("$.report.fleet.nodes_final",
                   f"exceeds nodes_provisioned ({final} > {provisioned})")
    if "prediction" in fleet:
        prediction = check.expect(fleet, "$.report.fleet", "prediction", dict)
        tail = check.expect(prediction, "$.report.fleet.prediction", "tail",
                            dict)
        check.tail_block(tail, "$.report.fleet.prediction.tail")

    nodes = check.expect(report, "$.report", "nodes", list)
    if len(nodes) != provisioned:
        check.fail("$.report.nodes",
                   f"length {len(nodes)} != nodes_provisioned {provisioned}")
    for i, node in enumerate(nodes):
        path = f"$.report.nodes[{i}]"
        check.value(node, path, dict)
        check.expect(node, path, "node", str)
        state = check.expect(node, path, "state", str)
        if state not in ("warming", "active", "draining", "stopped"):
            check.fail(f"{path}.state", f"unknown node state {state!r}")
        for key in ("provisioned_t", "available_t"):
            check.number(node, path, key)
        check.number(node, path, "stopped_t", allow_none=True)
        for key in ("routed", "completed", "shed", "failed",
                    "migrated_out", "batches"):
            check.count(node, path, key)
        nslo = check.expect(node, path, "slo", dict)
        for key in ("met", "missed"):
            check.count(nslo, f"{path}.slo", key)
        check.latency_summary(node, path, "latency")
        check.number(node, path, "busy_seconds")

    scaling = check.expect(report, "$.report", "scaling", dict)
    events = check.expect(scaling, "$.report.scaling", "events", list)
    for i, event in enumerate(events):
        path = f"$.report.scaling.events[{i}]"
        check.value(event, path, dict)
        check.number(event, path, "t", minimum=0)
        action = check.expect(event, path, "action", str)
        if action not in ("up", "down", "kill"):
            check.fail(f"{path}.action", f"unknown action {action!r}")
        check.expect(event, path, "reason", dict)
    for key in ("scale_ups", "scale_downs", "kills"):
        check.count(scaling, "$.report.scaling", key)

    routing = check.expect(report, "$.report", "routing", dict)
    policy = check.expect(routing, "$.report.routing", "policy", str)
    if policy not in ROUTER_POLICIES:
        check.fail("$.report.routing.policy", f"unknown policy {policy!r}")
    check.count(routing, "$.report.routing", "spills")

    conservation = check.expect(report, "$.report", "conservation", dict)
    check.expect(conservation, "$.report.conservation", "ok", bool)
    for key in ("accounted", "conserved"):
        check.count(conservation, "$.report.conservation", key)
    violations = check.expect(conservation, "$.report.conservation",
                              "violations", list)
    for i, message in enumerate(violations):
        if not isinstance(message, str):
            check.fail(f"$.report.conservation.violations[{i}]",
                       "expected a string")
    if conservation["ok"] and violations:
        check.fail("$.report.conservation",
                   "ok is true but violations are present")
