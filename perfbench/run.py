"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload lib-eval --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
median of several cold set-ups, then one warm-up pass that counts the
simulated events, then measured passes of the same inputs until
``--seconds`` of host time have been spent.  ``--trace 1`` runs the
same inputs once untraced and once with every layer wrapped, and
prints the per-layer metrics.  Either way the outputs are checked, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See NOTES.md for the definitions, the workloads and known defects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units():
    """Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json
    lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(run, inputs):
    gc.collect()
    t0 = time.perf_counter()
    outcome = run(inputs)
    return outcome, time.perf_counter() - t0


def _report_pass(workload, summary: dict) -> None:
    print(f"workload {workload.name} seed {workload.seed}: "
          f"{summary['attempted']} ops, {summary['failed']} failed "
          f"(fail_frac {summary['fail_frac']:.6f}), "
          f"{summary['n_completed']} completed "
          f"(the n of sim_p50_ms and sim_p99_ms)")
    if "n_shed" in summary:
        print(f"  {summary['n_shed']} requests shed by admission control "
              "(counted as SLO misses, not as failures)")
    for line in summary["failures"]:
        print(f"  failed: {line}")
    if "report_slo_attainment" in summary:
        print(f"  slo_attainment {summary['slo_attainment']:.4f} counts "
              f"shed requests as misses; the cluster report says "
              f"{summary['report_slo_attainment']:.4f}")
    if workload.name != "lib-eval":
        print("  arrivals are open-loop and pre-drawn from the seed; "
              "latency runs from the scheduled arrival, so generator "
              "lateness is zero by construction")
    digest = hashlib.sha256(_canonical(summary).encode()).hexdigest()
    print(f"  simulated-results digest {digest[:16]} (equal for every run "
          "of this workload and seed, traced or not)")


def _untraced(workload, seconds: float):
    """End-to-end metrics with tracing off (see NOTES.md)."""
    import layers
    from repro.experiments import harness

    setup = []
    for _ in range(SETUP_REPEATS):
        harness.clear_model_cache()
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - t0)
    errors = []
    with layers.count_events() as events:
        reference = workload.run(workload.fresh_inputs())
    summary = workload.summarize(reference)
    times = []
    while sum(times) < seconds:
        outcome, elapsed = _timed(workload.run, workload.fresh_inputs())
        times.append(elapsed)
        if _canonical(workload.summarize(outcome)) != _canonical(summary):
            errors.append(f"pass {len(times)}: simulated results differ "
                          "from the warm-up pass")
        del outcome
    host = statistics.median(times)
    print("  measured passes " + ", ".join(f"{t:.4f}" for t in times)
          + f" host s (median {host:.4f}); {events[0]} simulated events "
          "per pass; set-ups " + ", ".join(f"{s:.4f}" for s in setup)
          + " s")
    t0 = time.perf_counter()
    once = workload.once()
    check_errors, _extra = workload.checks(reference)
    errors += check_errors
    print(f"  tile sweep and output checks took "
          f"{time.perf_counter() - t0:.1f} host s")
    values = dict(summary, **once)
    values.update({
        "setup_s": statistics.median(setup),
        "ops_per_host_s": summary["attempted"] / host,
        "host_us_per_event": 1e6 * host / events[0],
        "peak_rss_mb": _peak_rss_mb(),
    })
    return summary, values, errors


def _traced(workload, names):
    """Per-layer metrics ``names`` from one traced pass (see NOTES.md)."""
    import layers
    from repro.deploy import deploy
    from repro.experiments import harness
    from tracer import Tracer

    setup_tracer = Tracer()
    setup_tracer.patch_function(deploy, "deploy")
    harness.clear_model_cache()
    try:
        workload.setup()
    finally:
        setup_tracer.uninstall()
    errors = []
    # Warm-up, then the untraced reference, then the traced pass.
    workload.run(workload.fresh_inputs())
    with layers.count_events() as events:
        reference, untraced_s = _timed(workload.run, workload.fresh_inputs())
    summary = workload.summarize(reference)
    tracer = Tracer()
    inputs = workload.fresh_inputs()
    layers.install(tracer)
    try:
        outcome, traced_s = _timed(workload.run, inputs)
    finally:
        tracer.uninstall()
    if _canonical(workload.summarize(outcome)) != _canonical(summary):
        errors.append("traced and untraced passes differ in simulated "
                      "results")
    counts = tracer.counts
    if counts.get("sim.engine.events", 0) != events[0]:
        errors.append(f"traced pass fired {counts.get('sim.engine.events')} "
                      f"events, untraced {events[0]}")
    own = tracer.self_times()
    self_sum = sum(own.values())
    if self_sum > traced_s:
        errors.append(f"span self times sum to {self_sum:.4f} s, more than "
                      f"the traced pass's {traced_s:.4f} s")
    check_errors, extra = workload.checks(reference)
    errors += check_errors

    values = {name: counts.get(name, 0) for name in names}
    for layer, seconds in own.items():
        values[f"{layer}.self_s"] = seconds
    values["sim.device.create_s"] = own.get("sim.device", 0.0)
    values["deploy.self_s"] = setup_tracer.self_times().get("deploy", 0.0)
    lookups = counts.get("core.predcache.lookups", 0)
    values["core.predcache.hit_ratio"] = (
        max(0.0, 1.0 - counts.get("core.select.sweeps", 0) / lookups)
        if lookups else 0.0)
    values["core.tailbank.refits"] = sum(
        bank.refits for bank in tracer.collected.get("tail_banks", []))
    values["core.tailbank.rejections"] = sum(
        d.tail_rejections for d in tracer.collected.get("dispatchers", []))
    admits = counts.get("serve.dispatcher.admits", 0)
    values["serve.dispatcher.shed_ratio"] = (
        counts.get("serve.dispatcher.shed", 0) / admits if admits else 0.0)
    values["serve.dispatcher.downgrades"] = counts.get(
        "serve.dispatcher.downgrade", 0)
    values.update(extra)
    values.update(workload.layer_metrics(outcome, tracer))
    values.update({
        "trace.untraced_host_s": untraced_s,
        "trace.traced_host_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_sum_s": self_sum,
        "trace.spans": tracer.n_spans,
    })
    for name in workload.loaded:
        if not values[name]:
            errors.append(f"{name} is zero on {workload.name}, which is "
                          "meant to load that layer")
    if hasattr(workload, "control_check"):
        control = workload.control_check()
        print(f"  minimum fleet without autoscaling: slo_attainment "
              f"{control['slo_attainment']:.4f}, shed share "
              f"{control['shed_frac']:.4f}; autoscaled: slo_attainment "
              f"{summary['slo_attainment']:.4f}, shed share "
              f"{summary['n_shed'] / summary['attempted']:.4f}")
        if control["shed_frac"] == 0 and control["slo_attainment"] == 1.0:
            errors.append("the minimum fleet meets every SLO without "
                          "autoscaling, so the surge does not load the "
                          "autoscaler")
    print(f"  traced pass {traced_s:.4f} host s, untraced {untraced_s:.4f} "
          f"host s, {tracer.n_spans} spans; span self times sum to "
          f"{self_sum:.4f} s (sim.engine.self_s includes event callbacks "
          "that have no span of their own)")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR,
                        f"spans-{workload.name}-seed{workload.seed}.npz")
    tracer.write(path)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return summary, values, errors


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: the program's source is missing "
              f"({os.path.join(src, 'repro')})", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_units()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        units = per_layer
        summary, values, errors = _traced(workload, per_layer)
    else:
        units = end_to_end
        summary, values, errors = _untraced(workload, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    _report_pass(workload, summary)
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
