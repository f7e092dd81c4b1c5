"""Tests for the ablation studies and the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.experiments import ablations

SCALE = 0.08


class TestAblations:
    def test_validity_threshold_sweep_shape(self):
        results = ablations.sweep_validity_threshold(
            thresholds=(0.2, 0.8), scale=SCALE, num_runs=1
        )
        assert set(results) == {"P_thld=0.2", "P_thld=0.8"}
        for result in results.values():
            assert 0.0 <= result.point_coverage <= 1.0

    def test_effective_angle_sweep_shape(self):
        results = ablations.sweep_effective_angle(
            angles_deg=(30.0, 60.0), scale=SCALE, num_runs=1
        )
        assert set(results) == {"theta=30deg", "theta=60deg"}

    def test_probability_floor_sweep_shape(self):
        results = ablations.sweep_probability_floor(
            floors=(0.0, 0.02), scale=SCALE, num_runs=1
        )
        assert set(results) == {"floor=0.0", "floor=0.02"}

    def test_gateway_strategies(self):
        results = ablations.compare_gateway_strategies(
            strategies=("random", "degree"), scale=SCALE, num_runs=1
        )
        assert set(results) == {"random", "degree"}


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["fig5", "--scale", "0.1", "--runs", "2"])
        assert args.command == "fig5"
        assert args.scale == 0.1
        assert args.runs == 2

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "ablation" in out

    def test_list_names_every_ablation_study(self, capsys):
        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        study = next(
            action for action in subcommands.choices["ablation"]._actions
            if action.dest == "study"
        )
        assert main(["list"]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("ablation ")
        )
        assert set(study.choices) == set(row.split()[1:]) - {"|"}

    def test_demo_command(self, capsys):
        assert main(["demo", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "our-scheme" in out

    def test_fig5_command_small(self, capsys):
        assert main(["fig5", "--scale", str(SCALE), "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5(a)" in out
        assert "spray-and-wait" in out

    def test_fig7_command_small(self, capsys):
        assert main(["fig7", "--scale", str(SCALE), "--trace", "cambridge"]) == 0
        out = capsys.readouterr().out
        assert "Fig 7(d)" in out

    def test_trace_stats_command(self, capsys):
        assert main(["trace-stats", "--scale", "0.1", "--trace", "mit"]) == 0
        out = capsys.readouterr().out
        assert "contact graph" in out
        assert "heterogeneity" in out

    def test_ablation_floor_command(self, capsys):
        assert main(["ablation", "floor", "--scale", str(SCALE)]) == 0
        out = capsys.readouterr().out
        assert "floor=" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])
        with pytest.raises(SystemExit):
            main(["ablation", "estimators"])


class TestChurnAblation:
    def test_sweep_churn_shape(self):
        results = ablations.sweep_churn(
            availabilities=(1.0, 0.5), scale=SCALE, num_runs=1
        )
        assert set(results) == {"availability=1.0", "availability=0.5"}
        full = results["availability=1.0"]
        churned = results["availability=0.5"]
        # Losing half the participation time cannot help.
        assert churned.point_coverage <= full.point_coverage + 0.05

    def test_sweep_churn_validation(self):
        with pytest.raises(ValueError):
            ablations.sweep_churn(availabilities=(0.0,), scale=SCALE)

    def test_cli_churn(self, capsys):
        assert main(["ablation", "churn", "--scale", str(SCALE)]) == 0
        assert "availability=" in capsys.readouterr().out
