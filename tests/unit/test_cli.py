"""Unit tests for the command-line interface."""

import io

import pytest

from repro import cli


def test_list_prints_every_experiment():
    stream = io.StringIO()
    assert cli.main(["list"], stream=stream) == 0
    lines = stream.getvalue().splitlines()
    names = [line for line in lines if not line.startswith("runtimes:")]
    assert "fig3" in names and "table1" in names and "ablation-merge" in names
    assert "nemesis" in names and "durable-recovery" in names
    assert not {"recovery", "checkpoint-scaling", "delta-checkpoint"} & set(names)
    assert set(names) == set(cli.EXPERIMENTS)
    # The accepted --runtime values are listed too.
    assert "runtimes: " + " ".join(cli.RUNTIMES) in lines


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["fig99"])


def test_table1_via_cli():
    stream = io.StringIO()
    assert cli.main(["table1"], stream=stream) == 0
    assert "degrees of parallelism" in stream.getvalue()


def test_fig4_via_cli_with_tiny_window():
    stream = io.StringIO()
    code = cli.main(
        ["fig4", "--warmup", "0.004", "--duration", "0.01", "--seed", "3"],
        stream=stream,
    )
    assert code == 0
    output = stream.getvalue()
    assert "Figure 4" in output
    assert "P-SMR" in output


def test_every_registered_experiment_has_a_driver():
    for name, (driver, _takes_timing, _takes_runtime) in cli.EXPERIMENTS.items():
        assert callable(driver), name


def test_nemesis_is_registered_without_timing_kwargs():
    driver, takes_timing, takes_runtime = cli.EXPERIMENTS["nemesis"]
    assert callable(driver)
    assert not takes_timing
    assert takes_runtime


def test_parser_rejects_unknown_runtime():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["nemesis", "--runtime", "gpu"])


@pytest.mark.parametrize("argv", [
    ["nemesis", "--runtime", "sim"],
    ["recovery"],
    ["checkpoint-scaling"],
    ["delta-checkpoint"],
    ["frontend"],
], ids=" ".join)
def test_removed_choices_exit_with_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv, stream=io.StringIO())
    assert excinfo.value.code == 2


def test_nemesis_via_cli():
    stream = io.StringIO()
    code = cli.main(["nemesis", "--seed", "5"], stream=stream)
    assert code == 0
    output = stream.getvalue()
    assert "seeded randomized episode" in output
    # Every episode line carries the seed for one-command reproduction.
    assert "--seed 5" in output


@pytest.mark.parametrize("failures, code", [(["replica states diverged"], 1), ([], 0)])
def test_exit_status_reports_an_oracle_failure(monkeypatch, failures, code):
    # `repro.cli nemesis` is a CI step: at the parent a failing episode only
    # added a line to the text and the step stayed green.
    def driver(seed, runtime):
        return {"text": "EPISODE FAILURES" if failures else "ok", "failures": failures}

    monkeypatch.setitem(cli.EXPERIMENTS, "nemesis", (driver, False, True))
    assert cli.main(["nemesis"], stream=io.StringIO()) == code
