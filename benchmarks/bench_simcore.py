"""Bench: simulator-core throughput on the binary-heap event engine.

Measures two workloads:

* ``link_saturated`` — a deep bidirectional backlog of large transfers
  on one duplex link: every chunk re-plans the opposite direction's
  rate (the paper's asymmetric bidirectional slowdown), so the run is
  dominated by event-queue and link bookkeeping.  Reports the drain's
  wall-clock seconds and the simulated makespan.  No floor: the
  seconds depend on the runner.
* ``serving_core`` — the end-to-end serving loop (dispatcher, batch
  scheduler, prediction models, DES) at quick scale.  The floor is
  *simulated requests per wall-clock minute*, the capacity number the
  fault-domain serving work budgets against.

``--record`` runs the workloads and writes
``results/BENCH_simcore.json``; ``--validate`` checks the committed
document's schema, internal coherence (the recorded rate matches the
recorded timing), and the throughput floor.  Validation reads the
committed JSON only — it never re-measures — so CI can enforce the
floor deterministically on any runner.  ``--determinism`` checks that
two same-seed serve runs emit byte-identical reports and two storm
runs reach an equal makespan.

Usage::

    PYTHONPATH=src python benchmarks/bench_simcore.py --scale quick
    PYTHONPATH=src python benchmarks/bench_simcore.py --record \
        --json benchmarks/results/BENCH_simcore.json
    PYTHONPATH=src python benchmarks/bench_simcore.py --validate
    PYTHONPATH=src python benchmarks/bench_simcore.py --determinism
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_JSON = RESULTS_DIR / "BENCH_simcore.json"

SCHEMA = "repro.bench_simcore/v2"

#: Acceptance floor: simulated requests per wall-clock minute
#: for the quick-scale serving core.
THROUGHPUT_FLOOR_PER_MIN = 100_000

BENCH_SEED = 11

#: 8 MiB transfers: long byte-flow phases, so nearly every chunk
#: overlaps the opposite direction and triggers a re-plan.
CHUNK_BYTES = 8 << 20

_SCALES = {
    #          chunks/direction   serve requests
    "tiny":    (2_000,            128),
    "quick":   (20_000,           1_024),
    "paper":   (100_000,          4_096),
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _storm_link(sim):
    from repro.sim import DuplexLink, LinkDirectionConfig

    return DuplexLink(
        sim,
        h2d=LinkDirectionConfig(latency=1e-5, bandwidth=8e9,
                                bid_slowdown=1.3),
        d2h=LinkDirectionConfig(latency=1e-5, bandwidth=6e9,
                                bid_slowdown=1.8),
    )


def run_link_storm(n: int) -> dict:
    """Drain a 2x``n``-chunk bidirectional backlog; time ``sim.run()``.

    The backlog is submitted up front (deep FIFO); only the drain is
    timed.
    """
    from repro.sim import Direction, Simulator

    sim = Simulator()
    link = _storm_link(sim)
    for _ in range(n):
        link.submit(Direction.H2D, CHUNK_BYTES)
        link.submit(Direction.D2H, CHUNK_BYTES)
    t0 = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - t0
    stats = link.stats(Direction.H2D)
    assert stats.transfers == n, stats.transfers
    return {"seconds": seconds, "makespan": sim.now}


def _serving_setup():
    from repro.experiments.harness import models_for
    from repro.serve import WorkloadSpec, generate_workload
    from repro.sim.machine import get_testbed

    machine = get_testbed("testbed_ii")
    models = models_for(machine, "quick")

    def make_requests(n: int):
        spec = WorkloadSpec(arrival="poisson", rate=8000.0, n_requests=n,
                            scale="tiny", seed=BENCH_SEED)
        return generate_workload(spec)

    return machine, models, make_requests


def run_serving(machine, models, requests) -> float:
    """Serve a pre-generated workload; time ``serve()`` only."""
    from repro.serve import BlasServer, ServerConfig

    server = BlasServer(machine, models,
                        ServerConfig(n_gpus=4, seed=BENCH_SEED))
    t0 = time.perf_counter()
    outcome = server.serve(requests)
    seconds = time.perf_counter() - t0
    # Conservation, not completion: at this depth some requests time
    # out, but every submitted request must reach a settled outcome.
    assert len(outcome.requests) == len(requests), len(outcome.requests)
    return seconds


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def _best(fn, reps: int) -> float:
    """Best-of-``reps`` (min is the stable wall-clock statistic)."""
    return min(fn() for _ in range(reps))


def run_all(scale: str, reps: int) -> dict:
    n_chunks, n_requests = _SCALES[scale]

    storms = [run_link_storm(n_chunks) for _ in range(reps)]
    link_entry = {"chunks_per_direction": n_chunks,
                  "chunk_bytes": CHUNK_BYTES,
                  "seconds": min(run["seconds"] for run in storms),
                  "makespan": storms[0]["makespan"]}
    print(f"  link_saturated {link_entry['seconds'] * 1e3:9.1f} ms  "
          f"(best of {reps}), makespan {link_entry['makespan']:.6f} s")

    machine, models, make_requests = _serving_setup()
    requests = make_requests(n_requests)
    seconds = _best(lambda: run_serving(machine, models, requests), reps)
    per_min = n_requests / seconds * 60.0
    serve_entry = {"n_requests": n_requests, "seconds": seconds,
                   "requests_per_min": per_min}
    print(f"  serving_core   {seconds * 1e3:9.1f} ms  "
          f"-> {per_min:,.0f} req/min  (best of {reps})")

    return {"link_saturated": link_entry, "serving_core": serve_entry}


def record(path: Path, scale: str, reps: int) -> dict:
    print(f"simcore bench: scale={scale}, recording")
    doc = {
        "schema": SCHEMA,
        "scale": scale,
        "reps": reps,
        "throughput_floor_per_min": THROUGHPUT_FLOOR_PER_MIN,
    }
    doc.update(run_all(scale, reps))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return doc


# ---------------------------------------------------------------------------
# validation (committed document only — no re-measurement)
# ---------------------------------------------------------------------------

def _positive(entry: dict, name: str, key: str) -> float:
    value = entry.get(key)
    assert isinstance(value, (int, float)) and value > 0, \
        f"{name}.{key} not a positive number: {value!r}"
    return value


def validate(path: Path, check_floors: bool = True) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    assert doc.get("schema") == SCHEMA, f"bad schema: {doc.get('schema')}"
    assert doc.get("scale") in _SCALES, doc.get("scale")
    assert isinstance(doc.get("reps"), int) and doc["reps"] >= 1

    link = doc.get("link_saturated")
    assert isinstance(link, dict), "missing link_saturated"
    assert isinstance(link.get("chunks_per_direction"), int) \
        and link["chunks_per_direction"] > 0
    _positive(link, "link_saturated", "seconds")
    _positive(link, "link_saturated", "makespan")

    serve = doc.get("serving_core")
    assert isinstance(serve, dict), "missing serving_core"
    n = serve.get("n_requests")
    assert isinstance(n, int) and n > 0, f"bad n_requests: {n!r}"
    seconds = _positive(serve, "serving_core", "seconds")
    per_min = _positive(serve, "serving_core", "requests_per_min")
    want = n / seconds * 60.0
    assert abs(per_min - want) < 1e-9 * max(want, 1.0), \
        f"requests_per_min {per_min} != n/seconds*60 {want}"

    if check_floors:
        assert per_min >= THROUGHPUT_FLOOR_PER_MIN, (
            f"serving_core: {per_min:,.0f} req/min below the "
            f"{THROUGHPUT_FLOOR_PER_MIN:,} floor")

    print(f"{path} valid: storm {link['seconds']:.3f} s, serving "
          f"{per_min:,.0f}/min")


# ---------------------------------------------------------------------------
# determinism checks
# ---------------------------------------------------------------------------

def _serve_doc_bytes() -> bytes:
    from repro.serve import BlasServer, ServerConfig, serve_report

    machine, models, make_requests = _serving_setup()
    requests = make_requests(64)
    server = BlasServer(machine, models,
                        ServerConfig(n_gpus=4, seed=BENCH_SEED))
    report = serve_report(server.serve(requests))
    return json.dumps(report, sort_keys=True).encode()


def check_determinism() -> None:
    a = _serve_doc_bytes()
    b = _serve_doc_bytes()
    assert a == b, "same-seed serve runs emitted different reports"
    print(f"serve determinism ok ({len(a)} bytes, byte-identical)")

    n = _SCALES["tiny"][0]
    first = run_link_storm(n)["makespan"]
    second = run_link_storm(n)["makespan"]
    assert first == second, f"storm makespans differ: {first} != {second}"
    print(f"storm determinism ok ({n}-chunk storm, makespan {first:.6f} s)")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default="quick", choices=tuple(_SCALES))
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON)
    parser.add_argument("--record", action="store_true",
                        help="run the workloads and write the JSON")
    parser.add_argument("--validate", action="store_true",
                        help="validate the committed JSON schema + floor")
    parser.add_argument("--no-floor-gate", action="store_true",
                        help="with --validate: schema/coherence only")
    parser.add_argument("--determinism", action="store_true",
                        help="run the same-seed determinism checks")
    args = parser.parse_args(argv)

    did_something = False
    if args.record:
        record(args.json, args.scale, args.reps)
        did_something = True
    if args.validate:
        validate(args.json, check_floors=not args.no_floor_gate)
        did_something = True
    if args.determinism:
        check_determinism()
        did_something = True
    if not did_something:
        print(f"simcore bench: scale={args.scale} (dry run, not recorded)")
        run_all(args.scale, args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
