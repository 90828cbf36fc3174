"""CLI fault-tolerance paths: flag validation, --status, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestFlagValidation:
    def test_retry_flags_without_workers_exit_2(self, tmp_path, capsys):
        code = main(["campaign", "--traces", "200", "--max-retries", "3"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,fragment", [
        ("--max-retries", "-1", ">= 0"),
        ("--retry-backoff", "-0.5", ">= 0"),
        ("--shard-timeout", "0", "> 0"),
    ])
    def test_bad_values_exit_2(self, capsys, flag, value, fragment):
        code = main([
            "campaign", "--traces", "200", "--workers", "2", flag, value,
        ])
        assert code == 2
        assert fragment in capsys.readouterr().err

    def test_tvla_validates_the_same_flags(self, capsys):
        code = main(["tvla", "--traces", "40", "--shard-timeout", "0"])
        assert code == 2


class TestStatus:
    def test_status_without_store_exits_2(self, capsys):
        assert main(["campaign", "--status"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_status_on_missing_directory_exits_2(self, tmp_path, capsys):
        store = str(tmp_path / "nowhere")
        assert main(["campaign", "--status", "--store", store]) == 2
        assert "directory does not exist" in capsys.readouterr().err

    def test_status_on_serial_store_points_at_workers(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text('{"version": 1, "shards": []}')
        assert main(["campaign", "--status", "--store", str(store)]) == 2
        assert "serial trace store" in capsys.readouterr().err

    def test_status_on_corrupt_journal_says_how_to_reset(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "journal.json").write_text("{ not json")
        assert main(["campaign", "--status", "--store", str(store)]) == 2
        assert "delete journal.json" in capsys.readouterr().err

    def test_status_after_a_real_parallel_run(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["campaign", "--rd", "0", "--traces", "384",
                "--segment-length", "1600", "--aggregate", "8",
                "--patience", "1", "--first-checkpoint", "128",
                "--shard-size", "128", "--workers", "1", "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["campaign", "--status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "parallel_campaign" in out
        assert "phase" in out
        journal = json.loads((tmp_path / "store" / "journal.json").read_text())
        assert journal["kind"] == "parallel_campaign"


_TINY = ["--rd", "0", "--traces", "64", "--segment-length", "200",
         "--first-checkpoint", "64", "--patience", "1"]
_SCALE = str(1 / 8192)


def _corrupt_store(path):
    path.mkdir()
    (path / "manifest.json").write_text("{ not json")


def _sharded_root(path):
    argv = ["campaign", *_TINY, "--workers", "1", "--shard-size", "64",
            "--store", str(path)]
    assert main(argv) in (0, 1)


def _serial_store(path):
    assert main(["campaign", *_TINY, "--store", str(path)]) in (0, 1)


def _rd0_locator(path):
    from repro.config import default_config
    from repro.core.locator import CryptoLocator
    from repro.soc import SimulatedPlatform

    path.mkdir()
    locator = CryptoLocator(default_config("aes", 1 / 8192), seed=1)
    locator.fit_from_platform(
        SimulatedPlatform("aes", max_delay=0, seed=0), boundary_cos=4
    )
    locator.save(path / "locator.npz")


class TestBadInputs:
    """Missing, corrupt, wrong-layout and wrong-target inputs exit 2 with
    one line on stderr — never a traceback (exit 1 means "no verdict")."""

    @pytest.mark.parametrize("setup,argv", [
        (None, ["assess", "--store", "{d}"]),
        (None, ["locate", "--model", "{d}/missing.npz"]),
        (None, ["attack", "--model", "{d}/missing.npz"]),
        (_corrupt_store, ["campaign", "--store", "{d}"]),
        (_corrupt_store, ["assess", "--store", "{d}"]),
        (_sharded_root, ["profile", "--traces", "64", "--segment-length",
                         "200", "--store", "{d}", "--output", "{d}.prof"]),
        (_serial_store, ["campaign", *_TINY, "--workers", "1",
                         "--store", "{d}"]),
        (_sharded_root, ["campaign", *_TINY, "--workers", "1",
                         "--shard-size", "64", "--capture-mode", "fast",
                         "--store", "{d}"]),
        (_rd0_locator, ["locate", "--rd", "4", "--scale", _SCALE,
                        "--model", "{d}/locator.npz"]),
        (_rd0_locator, ["attack", "--rd", "2", "--scale", _SCALE,
                        "--model", "{d}/locator.npz"]),
    ], ids=["assess-missing-store", "locate-missing-model",
            "attack-missing-model", "campaign-corrupt-manifest",
            "assess-corrupt-manifest", "profile-into-shard-root",
            "sharded-campaign-on-serial-store",
            "sharded-campaign-other-capture-mode", "locate-other-rd",
            "attack-other-rd"])
    def test_exits_2_with_one_line(self, setup, argv, tmp_path, capsys):
        path = tmp_path / "d"
        if setup is not None:
            setup(path)
        capsys.readouterr()
        code = main([arg.format(d=path) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        if setup is _sharded_root:
            assert not (path / "manifest.json").exists()
        if setup is _rd0_locator:
            assert "--rd 0" in err
