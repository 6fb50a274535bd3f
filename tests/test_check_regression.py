"""The benchmark regression guard, ``benchmarks/check_regression.py``."""

from __future__ import annotations

import json

import pytest

from benchmarks import check_regression

RECORD_KEYS = {
    "name",
    "figure_id",
    "key_metric",
    "value",
    "x",
    "consistent",
    "commit",
}


def figure(speedup: float, consistent: bool = True) -> dict:
    return {
        "figure_id": "ABL-X",
        "title": "test figure",
        "x_label": "x",
        "series_names": ["makespan", "pess_speedup"],
        "points": [
            {"x": 1, "values": {"makespan": 4.0, "pess_speedup": 1.0}},
            {"x": 4, "values": {"makespan": 1.0, "pess_speedup": speedup}},
        ],
        "notes": [],
        "consistent": consistent,
    }


@pytest.fixture
def dirs(tmp_path):
    results = tmp_path / "results"
    baselines = tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    return results, baselines, tmp_path / "trajectory.json"


def write(directory, name: str, document: dict) -> None:
    (directory / f"{name}.json").write_text(json.dumps(document))


def run(dirs, *extra: str) -> int:
    results, baselines, trajectory = dirs
    return check_regression.main(
        [
            "--results",
            str(results),
            "--baselines",
            str(baselines),
            "--trajectory",
            str(trajectory),
            *extra,
        ]
    )


def test_matching_result_passes(dirs):
    results, baselines, _ = dirs
    write(baselines, "abl-x", figure(3.0))
    write(results, "abl-x", figure(3.0))
    assert run(dirs) == 0


def test_consistency_flip_fails(dirs, capsys):
    results, baselines, _ = dirs
    write(baselines, "abl-x", figure(3.0))
    write(results, "abl-x", figure(3.0, consistent=False))
    assert run(dirs) == 1
    assert "consistency bit flipped" in capsys.readouterr().out


def test_speedup_below_tolerance_floor_fails(dirs, capsys):
    results, baselines, _ = dirs
    write(baselines, "abl-x", figure(3.0))
    # floor at --tolerance 0.5 is 1.5: 1.6 holds, 1.4 regresses
    write(results, "abl-x", figure(1.6))
    assert run(dirs, "--tolerance", "0.5") == 0
    write(results, "abl-x", figure(1.4))
    assert run(dirs, "--tolerance", "0.5") == 1
    assert "pess_speedup at x=4 regressed" in capsys.readouterr().out


def test_missing_baseline_directory_exits_2(dirs):
    _, baselines, _ = dirs
    baselines.rmdir()
    assert run(dirs) == 2


def test_empty_baseline_directory_exits_2(dirs):
    results, _, _ = dirs
    write(results, "abl-x", figure(3.0))
    assert run(dirs) == 2


def test_baseline_without_result_fails(dirs, capsys):
    _, baselines, _ = dirs
    write(baselines, "abl-x", figure(3.0))
    assert run(dirs) == 1
    assert "CI produced no abl-x.json" in capsys.readouterr().out


def test_trajectory_records_carry_only_the_fixed_keys(dirs):
    results, baselines, trajectory = dirs
    write(baselines, "abl-x", figure(3.0))
    write(results, "abl-x", {**figure(3.0), "unit": "wall seconds"})
    assert run(dirs) == 0
    (record,) = json.loads(trajectory.read_text())["ablations"]
    assert set(record) == RECORD_KEYS
    assert record["key_metric"] == "pess_speedup"
    assert (record["x"], record["value"]) == (4, 3.0)
