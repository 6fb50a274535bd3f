"""The ``python -m repro.experiments`` command-line runner."""

import inspect

import pytest

import repro.experiments.__main__ as cli


class FakeResult:
    consistent = True

    def table(self):
        return "FAKE TABLE"


def record_runs(monkeypatch, *names):
    """Replace ``cli._runners`` with a fake whose ``fig09`` records the
    named ``_runners`` arguments (one value, or a tuple of several) each
    time it runs; returns the list of records."""
    seen = []
    signature = inspect.signature(cli._runners)

    def fake_runners(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = tuple(bound.arguments[name] for name in names)
        record = values[0] if len(values) == 1 else values
        return {"fig09": lambda: seen.append(record) or FakeResult()}

    monkeypatch.setattr(cli, "_runners", fake_runners)
    return seen


class TestArgumentHandling:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_runner_table_contains_all_figures(self):
        runners = cli._runners(full=False)
        for name in ("fig08", "fig09", "fig10", "fig11", "fig12"):
            assert name in runners
        assert any(name.startswith("abl-") for name in runners)

    def test_full_and_quick_tables_have_same_keys(self):
        assert set(cli._runners(False)) == set(cli._runners(True))


class TestExecution:
    def test_runs_requested_figure(self, monkeypatch, capsys):
        calls = record_runs(monkeypatch, "full")
        assert cli.main(["fig09"]) == 0
        assert calls == [False]
        assert "FAKE TABLE" in capsys.readouterr().out

    def test_full_flag_threaded_through(self, monkeypatch):
        seen = record_runs(monkeypatch, "full")
        cli.main(["fig09", "--full"])
        assert seen == [True]

    def test_seed_flag_threaded_through(self, monkeypatch):
        seen = record_runs(monkeypatch, "seed")
        cli.main(["fig09", "--seed", "42"])
        cli.main(["fig09"])
        assert seen == [42, None]

    def test_cache_flag_threaded_through(self, monkeypatch):
        seen = record_runs(monkeypatch, "snapshot_cache")
        cli.main(["fig09", "--cache"])
        cli.main(["fig09", "--no-cache"])
        cli.main(["fig09"])
        assert seen == [True, False, False]

    def test_cache_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(["fig09", "--cache", "--no-cache"])

    def test_self_maintenance_flag_threaded_through(self, monkeypatch):
        seen = record_runs(monkeypatch, "self_maintenance")
        cli.main(["fig09", "--self-maintenance"])
        cli.main(["fig09", "--no-self-maintenance"])
        cli.main(["fig09"])
        assert seen == [True, False, False]

    def test_self_maintenance_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(
                ["fig09", "--self-maintenance", "--no-self-maintenance"]
            )

    def test_batch_flag_threaded_through(self, monkeypatch):
        seen = record_runs(monkeypatch, "group_maintenance")
        cli.main(["fig09", "--batch"])
        cli.main(["fig09", "--no-batch"])
        cli.main(["fig09"])
        assert seen == [True, False, False]

    def test_batch_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(["fig09", "--batch", "--no-batch"])

    def test_recovery_flags_threaded_through(self, monkeypatch):
        seen = record_runs(
            monkeypatch, "journal", "checkpoint_every", "crash_seed"
        )
        cli.main(["fig09", "--journal", "--checkpoint-every", "4"])
        cli.main(["fig09", "--crash-seed", "11"])
        cli.main(["fig09"])
        assert seen == [(True, 4, None), (False, 8, 11), (False, 8, None)]

    @pytest.mark.parametrize("interval", ["0", "-2"])
    def test_checkpoint_interval_must_be_positive(
        self, monkeypatch, interval
    ):
        seen = record_runs(monkeypatch, "checkpoint_every")
        with pytest.raises(SystemExit):
            cli.main(["fig09", "--journal", "--checkpoint-every", interval])
        assert seen == []

    def test_crash_seed_implies_journal_in_runners(self):
        runners = cli._runners(full=False, crash_seed=3)
        assert "fig12" in runners

    def test_shards_flag_threaded_through(self, monkeypatch):
        seen = record_runs(monkeypatch, "shards")
        cli.main(["fig09", "--shards", "4"])
        cli.main(["fig09"])
        assert seen == [4, 1]

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            cli.main(["fig09", "--shards", "0"])

    def test_sharding_ablation_registered(self):
        assert "abl-sharding" in cli._runners(full=False)

    def test_batch_and_cache_flags_compose(self, monkeypatch):
        seen = record_runs(monkeypatch, "snapshot_cache", "group_maintenance")
        cli.main(["fig09", "--cache", "--batch"])
        assert seen == [(True, True)]

    def test_all_runs_everything(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            cli,
            "_runners",
            lambda *args, **kwargs: {
                name: (lambda n=name: ran.append(n) or FakeResult())
                for name in ("fig09", "fig10")
            },
        )
        cli.main(["all"])
        assert ran == ["fig09", "fig10"]

    def test_inconsistent_result_fails(self, monkeypatch):
        class BadResult:
            consistent = False

            def table(self):
                return ""

        monkeypatch.setattr(
            cli, "_runners", lambda *args, **kwargs: {"fig09": BadResult}
        )
        assert cli.main(["fig09"]) == 1
