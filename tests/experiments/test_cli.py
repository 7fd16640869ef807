"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import build_parser, main


def test_parser_commands():
    parser = build_parser()
    args = parser.parse_args(["table4", "--dataset", "german", "--n", "500"])
    assert args.command == "table4"
    assert args.dataset == "german"
    assert args.n == 500


def test_run_requires_known_variant(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--dataset", "german", "--n", "400",
              "--variant", "Bogus"])


def test_table3_prints(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "stackoverflow" in out


@pytest.mark.slow
def test_run_command_prints_case_study(capsys):
    assert main(["run", "--dataset", "german", "--n", "1000",
                 "--variant", "No constraints", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "expected utility" in out
    assert "Selected Rules" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    from repro import __version__

    assert f"repro {__version__}" in out


def test_list_datasets(capsys):
    assert main(["list-datasets"]) == 0
    out = capsys.readouterr().out
    assert "german" in out
    assert "stackoverflow" in out


def test_export_writes_loadable_artifact(tmp_path, capsys):
    out_path = tmp_path / "ruleset.json"
    assert main(["export", "--dataset", "german", "--n", "500", "--seed", "3",
                 "--variant", "No constraints", "--out", str(out_path)]) == 0
    assert "exported" in capsys.readouterr().out

    from repro.serve.artifact import ServingArtifact

    artifact = ServingArtifact.load(str(out_path))
    assert artifact.ruleset.size > 0
    assert artifact.protected is not None
    assert artifact.metadata["dataset"] == "german"


def test_export_rejects_unknown_variant(tmp_path):
    with pytest.raises(SystemExit):
        main(["export", "--dataset", "german", "--n", "400",
              "--variant", "Bogus", "--out", str(tmp_path / "x.json")])


def test_serve_missing_artifact_is_clean_error(capsys):
    assert main(["serve", "--artifact", "/nonexistent/ruleset.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "ruleset.json" in err


def test_workers_flag_reaches_the_config(monkeypatch):
    from repro.__main__ import _settings
    from repro.datasets import load_german

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    settings = _settings(build_parser().parse_args(["run", "--workers", "2"]))
    bundle = load_german(n=300, rng=1)
    variants = settings.variants_for(bundle)
    config = settings.config_for(bundle, variants["No constraints"])
    assert config.n_workers == 2


def test_executor_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["run", "--executor", "process"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --executor process" in capsys.readouterr().err


def test_malformed_mining_variable_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_WORKERS", "abc")
    assert main(["run", "--dataset", "german", "--n", "300"]) == 1
    err = capsys.readouterr().err
    assert err == "error: REPRO_WORKERS must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    ("argv", "env", "n"),
    [
        (["--dataset", "german", "--n", "-5"], {}, -5),
        (["--dataset", "german", "--n", "0"], {}, 0),
        (["--dataset", "german"], {"REPRO_GERMAN_N": "-5"}, -5),
        (["--dataset", "stackoverflow"], {"REPRO_SO_N": "0"}, 0),
    ],
    ids=["flag-negative", "flag-zero", "german-env-negative", "so-env-zero"],
)
def test_row_count_below_one_is_a_clean_error(argv, env, n, monkeypatch, capsys):
    for name in ("REPRO_FULL", "REPRO_SO_N", "REPRO_GERMAN_N"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["run", *argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: row count n must be at least 1, got {n}\n"


@pytest.mark.parametrize("command", ["table4", "table5", "table6"])
def test_cache_size_parses_where_a_block_shares_a_cache(command):
    args = build_parser().parse_args([command, "--cache-size", "0"])
    assert args.cache_size == 0


@pytest.mark.parametrize(
    "command",
    ["table3", "run", "export", "figure3", "figure4", "figure5", "apriori-sweep"],
)
def test_cache_size_is_not_a_flag_where_it_would_set_nothing(command, capsys):
    """These commands run FairCap without a CATE cache (or not at all)."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, "--cache-size", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --cache-size 5" in capsys.readouterr().err


def test_serve_parser_arguments():
    args = build_parser().parse_args(
        ["serve", "--artifact", "ruleset.json", "--port", "9000"]
    )
    assert args.command == "serve"
    assert args.artifact == "ruleset.json"
    assert args.port == 9000
    # Parser defaults are None so REPRO_SERVE_* env vars can layer under
    # explicit flags; the real default (1024) lives on ServeConfig.
    assert args.cache_size is None

    from repro.serve import ServeConfig

    assert ServeConfig().cache_size == 1024


@pytest.mark.slow
def test_run_trace_json_writes_a_run_report(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["run", "--dataset", "german", "--n", "400",
                 "--variant", "No constraints", "--seed", "3",
                 "--trace-json", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert f"telemetry report written to {trace_path}" in out

    import json

    from repro.obs import REPORT_VERSION

    report = json.loads(trace_path.read_text())
    assert report["version"] == REPORT_VERSION
    assert report["meta"]["dataset"] == "german"
    assert report["meta"]["variant"] == "No constraints"
    assert report["meta"]["seed"] == 3
    assert report["counters"]["mining.contexts"]["deterministic"] is True
    assert set(report["derived"]) == {
        "cache_hit_rate", "prune_rate", "scalar_fallback_rate",
    }
    assert report["spans"], "span tree missing from the trace"


@pytest.mark.slow
def test_run_without_trace_json_keeps_telemetry_off(capsys):
    assert main(["run", "--dataset", "german", "--n", "400",
                 "--variant", "No constraints", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "telemetry report" not in out
