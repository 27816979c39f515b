"""The CLI JSON contract: stdout is always one valid envelope.

Parametrized over every subcommand (including failure paths): stdout
must parse as a single JSON document and satisfy the documented
envelope schema (``docs/service.md``).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.envelope import (
    SCHEMA,
    envelope,
    error_envelope,
    from_jsonable,
    jsonable,
    validate_envelope,
)

_TINY = ["--work", "2h", "--mtbf", "4h", "--traces", "1",
         "--policies", "young"]

# absolute so the cases survive the per-test chdir into tmp_path
_UNITS_PY = str(Path(__file__).resolve().parent.parent
                / "src" / "repro" / "units.py")

# (argv, expected exit code) — every subcommand that can run without a
# daemon, plus representative failure paths.
_CASES = [
    (["plan"], 0),
    (["plan", "--work", "1h", "--mtbf", "1d"], 0),
    (["mtbf", "--p", "64"], 0),
    (["simulate", "--traces", "1", "--work", "2h", "--mtbf", "4h",
      "--policy", "young"], 0),
    (["experiment", "fig1"], 0),
    (["lint", _UNITS_PY], 0),
    (["lint", "--list-rules"], 0),
    (["run", *_TINY], 0),
    (["compare", *_TINY, "--policies", "young,dalylow"], 0),
    (["benchmark", *_TINY], 0),
    (["store"], 0),
    (["store", "--wipe-solves"], 0),
    (["store", "--wipe"], 0),
    (["sweep", *_TINY, "--grid", "checkpoint=5m,10m"], 0),
    (["sweep", *_TINY, "--grid", "checkpoint=5m", "--jobs", "1"], 0),
    # failure paths: still exactly one envelope on stdout
    (["run", "--override", "mtbf=-1"], 2),
    (["run", "--override", "nosuchfield=1"], 2),
    (["sweep", *_TINY, "--grid", "nosuchfield=1"], 2),
    (["sweep", *_TINY, "--grid", "checkpoint=5m", "--submit",
      "--endpoint", "http://127.0.0.1:1"], 2),
    (["submit", *_TINY, "--endpoint", "http://127.0.0.1:1"], 2),
    (["status", "job-000001", "--endpoint", "http://127.0.0.1:1"], 2),
    (["result", "job-000001", "--endpoint", "http://127.0.0.1:1"], 2),
]


def _case_id(index: int, argv: list[str]) -> str:
    """The subcommand, its first argument and the case index; a path
    argument enters by its file name alone, so the id does not depend on
    where the checkout lives."""
    words = [Path(word).name if os.sep in word else word for word in argv[:2]]
    return " ".join(words) + f"#{index}"


@pytest.mark.parametrize(
    "argv,expected",
    _CASES,
    ids=[_case_id(i, argv) for i, (argv, _) in enumerate(_CASES)],
)
def test_stdout_is_one_valid_envelope(argv, expected, capsys, tmp_path,
                                      monkeypatch):
    monkeypatch.chdir(tmp_path)  # store/cache paths land in tmp
    monkeypatch.setenv("PYTHONPATH", "")
    rc = main(argv)
    out = capsys.readouterr().out
    env = json.loads(out)  # must parse as ONE document
    assert validate_envelope(env) == []
    assert env["schema"] == SCHEMA
    assert rc == expected
    assert env["exit_code"] == expected
    assert env["ok"] is (expected == 0)
    if expected != 0:
        assert env["error"]["type"]
        assert env["error"]["message"]


def test_store_envelope_reports_solvecache(capsys, tmp_path, monkeypatch):
    """`repro store` surfaces the persistent solve-cache tier: entry
    counts, byte usage and lifetime hit counters, plus the wipe knobs."""
    monkeypatch.chdir(tmp_path)
    rc = main(["store"])
    env = json.loads(capsys.readouterr().out)
    assert rc == 0
    solvecache = env["data"]["solvecache"]
    assert {"root", "entries", "bytes", "max_bytes", "kinds",
            "lifetime"} <= set(solvecache)
    assert {"hits", "misses", "stores", "evictions",
            "hit_rate"} <= set(solvecache["lifetime"])

    rc = main(["store", "--wipe-solves"])
    env = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert env["data"]["wiped_solves"] == 0  # empty tier: nothing to drop
    assert "wiped" not in env["data"]  # result store untouched


def test_lint_findings_exit_one_with_envelope(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")  # R1: stdlib random
    rc = main(["lint", str(bad)])
    env = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert env["ok"] is False
    assert env["exit_code"] == 1
    assert env["data"]["diagnostics"]


class TestEnvelopeHelpers:
    def test_envelope_shape(self):
        env = envelope("x", {"a": 1})
        assert validate_envelope(env) == []
        assert env["command"] == "x"

    def test_error_envelope_shape(self):
        env = error_envelope("x", "ValueError", "boom")
        assert validate_envelope(env) == []
        assert env["exit_code"] == 2
        assert env["error"] == {"type": "ValueError", "message": "boom"}

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda e: e.pop("schema"),
            lambda e: e.update(schema="other/v9"),
            lambda e: e.update(ok="yes"),
            lambda e: e.update(ok=False),  # ok false but error None
            lambda e: e.update(exit_code=1),  # ok true but nonzero
            lambda e: e.update(error={"type": "X"}),  # ok true with error
        ],
    )
    def test_validate_rejects(self, mutation):
        env = envelope("x", {})
        mutation(env)
        assert validate_envelope(env) != []

    def test_nonfinite_floats_round_trip(self):
        values = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf,
                  "plain": 0.1}
        encoded = jsonable(values)
        assert encoded["nan"] == "NaN"
        assert encoded["inf"] == "Infinity"
        # strict JSON: the encoded form survives json.dumps(allow_nan=False)
        text = json.dumps(encoded, allow_nan=False)
        decoded = from_jsonable(json.loads(text))
        assert math.isnan(decoded["nan"])
        assert decoded["inf"] == math.inf
        assert decoded["ninf"] == -math.inf
        assert decoded["plain"] == 0.1
