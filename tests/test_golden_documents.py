"""Golden-document regression: the CLI's output files are contractual.

Each pinned command writes its versioned JSON document(s) into a fresh
``--out-dir``; the SHA-256 of every file must equal the digest committed
in ``tests/data/golden_documents.json``.  All runs are seeded and the
documents are dumped deterministically, so any drift means simulated
behaviour (event order, link timing, serving decisions) or a document
schema changed.  The golden dgemm event stream is pinned separately by
``tests/obs/test_golden_trace.py``.

A pinned digest can hold a wrong answer as well as a right one, so the
cluster run's behavioural floors are also checked on the freshly
written document: the fleet must scale both up and down, and every
request must be accounted for.

Regenerate (only after an *intentional* behaviour or schema change)::

    PYTHONPATH=src python tests/test_golden_documents.py
"""

import hashlib
import json
import os

import pytest

from repro.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_documents.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_cluster_floors(out_dir):
    with open(os.path.join(out_dir, "cluster.json")) as fh:
        report = json.load(fh)["report"]
    assert report["conservation"]["ok"], report["conservation"]
    fleet = report["fleet"]
    counts = fleet["requests"]
    assert (counts["completed"] + counts["shed"] + counts["failed"]
            == counts["total"]), counts
    assert fleet["nodes_provisioned"] >= 4  # the initial fleet
    latency = fleet["latency"]
    assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"], latency
    assert report["scaling"]["scale_ups"] >= 1, report["scaling"]
    assert report["scaling"]["scale_downs"] >= 1, report["scaling"]


def write_documents(argv, out_dir, db_dir):
    """Run one pinned command; return {file name: digest} of its output."""
    code = main(list(argv) + ["--db-dir", db_dir, "--out-dir", out_dir])
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return {name: _sha256(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir))}


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    """One tiny-scale model database shared by every pinned command."""
    return str(tmp_path_factory.mktemp("db"))


@pytest.mark.parametrize("entry", GOLDEN["documents"],
                         ids=lambda e: e["argv"][0])
def test_documents_match_committed_digests(entry, tmp_path, db_dir,
                                           capsys):
    digests = write_documents(entry["argv"], str(tmp_path), db_dir)
    capsys.readouterr()
    if entry["argv"][0] == "cluster":
        check_cluster_floors(str(tmp_path))
    assert digests == entry["files"], (
        f"{' '.join(entry['argv'])} drifted from the golden digests")


def _regenerate():  # pragma: no cover - maintenance entry point
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        db = os.path.join(scratch, "db")
        for i, entry in enumerate(GOLDEN["documents"]):
            out = os.path.join(scratch, str(i))
            os.makedirs(out)
            entry["files"] = write_documents(entry["argv"], out, db)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(GOLDEN, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
