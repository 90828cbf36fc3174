"""The benchmarks' environment knobs parse as data, never as code."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_common():
    spec = importlib.util.spec_from_file_location(
        "_bench_common", BENCHMARKS / "_bench_common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parse_scale = _load_bench_common().parse_scale


class TestParseScale:
    @pytest.mark.parametrize("text, value", [
        ("1/32", 1 / 32), ("0.05", 0.05), ("1", 1.0), (" 1/1024 ", 1 / 1024),
        ("2", 2.0), ("1e-3", 0.001),
    ])
    def test_decimals_and_fractions(self, text, value):
        assert parse_scale(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["0", "-1/32", "0/5", "-0.5"])
    def test_non_positive_values_are_rejected(self, text):
        with pytest.raises(ValueError, match="must be > 0"):
            parse_scale(text)

    @pytest.mark.parametrize("text", [
        "", "1/0", "one", "2**-5", "__import__('os').getcwd()",
    ])
    def test_expressions_are_rejected_not_evaluated(self, text):
        with pytest.raises(ValueError, match="decimal or fraction"):
            parse_scale(text)

    def test_bad_environment_value_fails_at_import(self, tmp_path):
        marker = tmp_path / "ran"
        env = {
            "PYTHONPATH": os.pathsep.join([str(BENCHMARKS.parent / "src"),
                                           str(BENCHMARKS)]),
            "REPRO_BENCH_SCALE": f"open({str(marker)!r}, 'w').close() or 1/32",
        }
        done = subprocess.run(
            [sys.executable, "-c", "import _bench_common"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode != 0
        assert "REPRO_BENCH_SCALE must be a decimal or fraction" in done.stderr
        assert not marker.exists()
