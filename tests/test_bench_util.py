"""Benchmark plumbing: ``benchmarks/_util.report`` archives a result
table only above smoke scale, so a smoke check never overwrites an
archived full-scale table."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_UTIL = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "_util.py"


@pytest.fixture
def bench_util(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_util", _UTIL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module


def test_smoke_scale_echoes_without_archiving(bench_util, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    bench_util.report("fig2_petascale_exponential", "smoke table")
    assert "smoke table" in capsys.readouterr().out
    assert not bench_util.RESULTS_DIR.exists()


def test_other_scales_archive_the_table(bench_util, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    bench_util.report("fig2_petascale_exponential", "small table")
    assert "small table" in capsys.readouterr().out
    archived = bench_util.RESULTS_DIR / "fig2_petascale_exponential.txt"
    assert archived.read_text() == "small table\n"
