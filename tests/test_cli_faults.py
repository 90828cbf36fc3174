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


_SHARDED = ["campaign", "--rd", "0", "--segment-length", "400",
            "--workers", "1", "--shard-size", "256", "--capture-mode", "fast"]
_TVLA_ROOT = ["tvla", "--traces", "8", "--segment-length", "160",
              "--batch-size", "8", "--workers", "1", "--shard-size", "8"]


class TestShardRootTarget:
    """A sharded store root made for another target is refused up front."""

    @pytest.mark.parametrize("flag,value", [
        ("--cipher", "camellia"), ("--rd", "2"),
    ])
    def test_sharded_campaign_refuses_another_target(
        self, tmp_path, capsys, flag, value
    ):
        store = str(tmp_path / "root")
        assert main(_SHARDED + ["--traces", "300", "--store", store]) in (0, 1)
        capsys.readouterr()
        code = main(_SHARDED + ["--traces", "600", flag, value,
                                "--store", store])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert f"records {flag[2:]} " in err
        assert f"(it was made with {flag} " in err

    @pytest.mark.parametrize("first,refused", [
        (_SHARDED + ["--traces", "300"],
         ["--cipher", "camellia", "--traces", "600"]),
        (_TVLA_ROOT, ["--countermeasure", "shuffle"]),
    ], ids=["campaign", "tvla"])
    def test_refused_resume_leaves_the_journal_untouched(
        self, tmp_path, capsys, first, refused
    ):
        store = tmp_path / "root"
        assert main(first + ["--store", str(store)]) in (0, 1)
        journal = (store / "journal.json").read_bytes()
        assert main(first + refused + ["--store", str(store)]) == 2
        assert (store / "journal.json").read_bytes() == journal


class TestUnreadableArchives:
    """An ``.npz`` numpy cannot read exits 2 with one line, not a traceback."""

    def test_locate_with_a_junk_model(self, tmp_path, capsys):
        model = tmp_path / "bad.npz"
        model.write_text("junk\n")
        code = main(["locate", "--rd", "0", "--scale", "0.004", "--cos", "2",
                     "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "bad.npz" in err

    def test_campaign_with_a_truncated_profile(self, tmp_path, capsys):
        profile = tmp_path / "prof"
        assert main(["profile", "--rd", "0", "--traces", "600", "--pois", "2",
                     "--capture-mode", "fast", "--output", str(profile)]) == 0
        payload = profile / "templates.npz"
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        capsys.readouterr()
        code = main(["campaign", "--rd", "0", "--traces", "64",
                     "--capture-mode", "fast", "--distinguisher", "template",
                     "--profile", str(profile)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "templates.npz" in err
