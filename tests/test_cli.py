"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.core.params import Loc


@pytest.fixture()
def db_dir(tmp_path):
    return str(tmp_path / "db")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_ROUTINES = ["gemm", "gemv", "syrk", "axpy"]
_SCALES = ["tiny", "quick", "paper"]
_MACHINE = {
    "machine": ("--machine", "testbed_ii", ["testbed_i", "testbed_ii"]),
    "scale": ("--scale", "quick", _SCALES),
    "db_dir": ("--db-dir", None, None),
}
_PROBLEM = {
    "routine": (None, None, _ROUTINES),
    "dims": (None, None, None),
    "dtype": ("--dtype", "d", ["d", "s"]),
    "model": ("--model", "auto", None),
    "loc_a": ("--loc-a", Loc.HOST, None),
    "loc_b": ("--loc-b", Loc.HOST, None),
    "loc_c": ("--loc-c", Loc.HOST, None),
}

#: Every subcommand's options as dest -> (flag, default, choices).
#: The documents and golden digests depend on these defaults, so any
#: drift here is a behaviour change, not a refactor.
PINNED_OPTIONS = {
    "machines": {},
    "deploy": {
        **_MACHINE,
        "force": ("--force", False, None),
        "workers": ("--workers", 1, None),
    },
    "run": {
        **_MACHINE, **_PROBLEM,
        "library": ("--library", "cocopelia",
                    ["blasx", "cocopelia", "cublasxt", "serial", "unified"]),
        "tile": ("--tile", None, None),
        "faults": ("--faults", None, None),
    },
    "profile": {
        **_MACHINE, **_PROBLEM,
        "tile": ("--tile", None, None),
        "gpus": ("--gpus", 1, None),
        "faults": ("--faults", None, None),
        "out_dir": ("--out-dir", ".", None),
    },
    "summa": {
        **_MACHINE,
        "gpus": ("--gpus", 4, None),
        "topology": ("--topology", "ring", ["ring", "all_to_all"]),
        "gb_per_s": ("--gb-per-s", 8.0, None),
        "latency": ("--latency", 5e-06, None),
        "depth": ("--depth", 2, None),
        "seed": ("--seed", 0, None),
        "parallel": ("--parallel", None, None),
        "out_dir": ("--out-dir", ".", None),
    },
    "serve": {
        **_MACHINE,
        "gpus": ("--gpus", 4, None),
        "arrival": ("--arrival", "poisson", ["poisson", "bursty"]),
        "rate": ("--rate", 50.0, None),
        "requests": ("--requests", 64, None),
        "workload_scale": ("--workload-scale", "tiny", _SCALES),
        "seed": ("--seed", 0, None),
        "placement": ("--placement", "model", ["model", "round_robin"]),
        "admission": ("--admission", "shed", ["none", "shed", "downgrade"]),
        "admission_percentile": ("--admission-percentile", None, None),
        "deadline_fraction": ("--deadline-fraction", 0.75, None),
        "slack_lo": ("--slack-lo", 2.0, None),
        "slack_hi": ("--slack-hi", 8.0, None),
        "burst_size": ("--burst-size", 8, None),
        "model": ("--model", "auto", None),
        "no_batching": ("--no-batching", False, None),
        "no_host_offload": ("--no-host-offload", False, None),
        "faults": ("--faults", None, None),
        "out_dir": ("--out-dir", ".", None),
    },
    "chaos": {
        **_MACHINE,
        "scenario": ("--scenario", "kill-one-gpu",
                     ["all-gpus-degraded", "flapping-device",
                      "kill-one-gpu", "rolling-brownout"]),
        "gpus": ("--gpus", 4, None),
        "arrival": ("--arrival", "poisson", ["poisson", "bursty"]),
        "rate": ("--rate", 8000.0, None),
        "requests": ("--requests", 48, None),
        "workload_scale": ("--workload-scale", "tiny", ["tiny", "quick"]),
        "placement": ("--placement", "model", ["model", "round_robin"]),
        "hedging": ("--hedging", False, None),
        "seed": ("--seed", 0, None),
        "out_dir": ("--out-dir", ".", None),
    },
    "cluster": {
        **_MACHINE,
        "nodes": ("--nodes", 4, None),
        "gpus_per_node": ("--gpus-per-node", 2, None),
        "router": ("--router", "predicted",
                   ["predicted", "least_connections"]),
        "arrival": ("--arrival", "bursty", ["poisson", "bursty"]),
        "rate": ("--rate", 400.0, None),
        "requests": ("--requests", 20000, None),
        "workload_scale": ("--workload-scale", "tiny", _SCALES),
        "admission": ("--admission", "shed", ["none", "shed", "downgrade"]),
        "admission_percentile": ("--admission-percentile", None, None),
        "seed": ("--seed", 0, None),
        "no_autoscale": ("--no-autoscale", False, None),
        "min_nodes": ("--min-nodes", 2, None),
        "max_nodes": ("--max-nodes", 8, None),
        "kill_node": ("--kill-node", None, None),
        "out_dir": ("--out-dir", ".", None),
    },
    "select": {**_MACHINE, **_PROBLEM},
    "experiment": {
        "name": (None, None,
                 ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                  "table2", "table3", "table4", "all"]),
        "scale": ("--scale", "quick", _SCALES),
        "workers": ("--workers", 1, None),
    },
}


def _subcommand_options():
    """{subcommand: {dest: (flag, default, choices)}} of the live parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            a.dest: (a.option_strings[0] if a.option_strings else None,
                     a.default,
                     None if a.choices is None else list(a.choices))
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }


class TestMachines:
    def test_lists_both_testbeds(self, capsys):
        code, out, _ = run_cli(capsys, "machines")
        assert code == 0
        assert "testbed_i" in out and "testbed_ii" in out
        assert "12.18" in out  # V100 h2d bandwidth from Table II


class TestDeploy:
    def test_deploy_and_cache(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "deploy", "--machine", "testbed_ii",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "1/t_b" in out
        assert "dgemm" in out and "dgemv" in out and "daxpy" in out
        # Second call loads the cache (still succeeds, same content).
        code2, out2, _ = run_cli(capsys, "deploy", "--machine", "testbed_ii",
                                 "--scale", "tiny", "--db-dir", db_dir)
        assert code2 == 0
        assert out2 == out


class TestRun:
    @pytest.mark.parametrize("argv", [
        ("run", "gemm", "2048", "2048", "2048"),
        ("run", "gemm", "2048", "2048", "2048", "--library", "blasx"),
        ("run", "gemm", "2048", "2048", "2048", "--library", "cublasxt",
         "--tile", "1024"),
        ("run", "gemm", "2048", "2048", "2048", "--library", "serial"),
        ("run", "gemv", "4096", "4096"),
        ("run", "axpy", "8388608"),
        ("run", "axpy", "8388608", "--library", "unified"),
    ])
    def test_run_variants(self, capsys, db_dir, argv):
        code, out, _ = run_cli(capsys, *argv, "--scale", "tiny",
                               "--db-dir", db_dir)
        assert code == 0
        assert "GFLOP/s" in out
        assert "traffic" in out

    def test_run_with_locations(self, capsys, db_dir):
        code, out, _ = run_cli(
            capsys, "run", "gemm", "2048", "2048", "2048",
            "--loc-a", "device", "--loc-c", "device",
            "--scale", "tiny", "--db-dir", db_dir,
        )
        assert code == 0
        assert "A@D" in out and "C@D" in out

    def test_wrong_arity_errors(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "run", "gemm", "128", "128",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 2
        assert "M N K" in err

    def test_unified_rejects_gemm(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "run", "gemm", "512", "512", "512",
                               "--library", "unified",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 2
        assert "axpy" in err


class TestSelect:
    def test_shows_table_and_selection(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "select", "gemm", "4096", "4096",
                               "4096", "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "<-- selected" in out
        assert "predicted ms" in out

    def test_model_override(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "select", "gemm", "4096", "4096",
                               "4096", "--model", "cso",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "cso model" in out


class TestExperiment:
    def test_table2_runs(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "table2",
                               "--scale", "tiny")
        assert code == 0
        assert "Table II" in out

    def test_fig2_runs(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig2",
                               "--scale", "tiny")
        assert code == 0
        assert "Fig. 2" in out


class TestParser:
    def test_every_subcommand_option_is_pinned(self):
        assert _subcommand_options() == PINNED_OPTIONS

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_location_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "gemm", "1", "1", "1", "--loc-a", "moon"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("argv", [
        ["profile", "gemm", "512", "512", "512"],
        ["summa"],
        ["serve"],
        ["chaos"],
        ["cluster"],
        ["experiment", "fig7"],
    ], ids=lambda argv: argv[0])
    def test_no_engine_selection_flags(self, argv):
        # There is one event engine; no subcommand exposes a knob that
        # swaps the scheduler or the simulation mode.
        build_parser().parse_args(argv)
        for flag, value in (("--scheduler", "heap"),
                            ("--sim-mode", "exact")):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + [flag, value])


class TestSyrkCli:
    def test_run_syrk(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "run", "syrk", "2048", "1024",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "dsyrk" in out and "GFLOP/s" in out

    def test_select_syrk(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "select", "syrk", "4096", "4096",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "<-- selected" in out

    def test_syrk_wrong_arity(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "run", "syrk", "2048",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 2
        assert "N K" in err


class TestServe:
    def test_serve_smoke_writes_valid_document(self, capsys, db_dir,
                                               tmp_path):
        import json

        out_dir = str(tmp_path / "serve")
        code, out, _ = run_cli(
            capsys, "serve", "--gpus", "2", "--arrival", "poisson",
            "--rate", "2000", "--requests", "12", "--seed", "3",
            "--scale", "tiny", "--db-dir", db_dir, "--out-dir", out_dir)
        assert code == 0
        assert "Served 12 requests" in out
        assert "SLO" in out and "p99" in out
        assert "gpu0" in out and "host" in out

        from repro.serve import validate_serve_json

        with open(f"{out_dir}/serve.json") as fh:
            doc = json.load(fh)
        validate_serve_json(doc)
        assert doc["context"]["n_gpus"] == 2
        assert doc["context"]["workload"]["rate"] == 2000.0

    def test_serve_deterministic_across_runs(self, capsys, db_dir,
                                             tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "serve", "--requests", "8", "--rate", "1000",
                "--seed", "5", "--scale", "tiny", "--db-dir", db_dir,
                "--out-dir", str(out_dir))
            assert code == 0
            outs.append((out_dir / "serve.json").read_bytes())
        assert outs[0] == outs[1]

    def test_serve_round_robin_and_admission_flags(self, capsys, db_dir,
                                                   tmp_path):
        code, out, _ = run_cli(
            capsys, "serve", "--requests", "8", "--rate", "4000",
            "--placement", "round_robin", "--admission", "none",
            "--no-batching", "--no-host-offload",
            "--scale", "tiny", "--db-dir", db_dir,
            "--out-dir", str(tmp_path))
        assert code == 0
        assert "placement=round_robin" in out

    def test_serve_rejects_bad_arrival(self, capsys, db_dir, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(capsys, "serve", "--arrival", "uniform",
                    "--scale", "tiny", "--db-dir", db_dir,
                    "--out-dir", str(tmp_path))


class TestSummaCli:
    def test_summa_smoke_writes_valid_document(self, capsys, db_dir,
                                               tmp_path):
        import json

        out_dir = str(tmp_path / "summa")
        code, out, _ = run_cli(
            capsys, "summa", "--scale", "tiny", "--db-dir", db_dir,
            "--out-dir", out_dir)
        assert code == 0
        assert "SUMMA dgemm" in out and "Streaming dgemv" in out

        from repro.experiments.summa import validate_summa_json

        with open(f"{out_dir}/summa.json") as fh:
            doc = json.load(fh)
        validate_summa_json(doc)
        assert doc["context"]["n_gpus"] == 4
        assert doc["gemm"]["speedup_geomean"] >= 1.3

    def test_summa_deterministic_across_runs(self, capsys, db_dir,
                                             tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "summa", "--scale", "tiny", "--db-dir", db_dir,
                "--out-dir", str(out_dir))
            assert code == 0
            outs.append((out_dir / "summa.json").read_bytes())
        assert outs[0] == outs[1]

    def test_summa_all_to_all_and_knobs(self, capsys, db_dir, tmp_path):
        code, out, _ = run_cli(
            capsys, "summa", "--scale", "tiny", "--topology", "all_to_all",
            "--gpus", "3", "--gb-per-s", "16", "--depth", "3",
            "--db-dir", db_dir, "--out-dir", str(tmp_path))
        assert code == 0
        assert "all_to_all" in out
