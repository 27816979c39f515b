"""reprolint: rule fixtures, pragmas, engine mechanics, CLI.

Each rule is demonstrated by a failing and a passing fixture under
``tests/fixtures/lint/`` (never collected by pytest, never swept up by
directory-walk linting).  The property-style pair test asserts each
failing fixture triggers *exactly* its own rule — no cross-rule bleed —
and each passing fixture is completely clean under the full rule set.
The capstone test asserts the real tree passes its own linter:
``repro lint src tests`` must exit 0.

The interprocedural layer (call graph, R13/R15 witness chains) is
covered in its own section toward the end.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    all_rules,
    format_diagnostic,
    get_rule,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.lint.engine import iter_python_files
from repro.lint.registry import is_project_rule

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"

ALL_CODES = ["R1", "R2", "R6", "R9", "R10", "R11", "R12", "R13", "R15"]

# code -> (failing fixture, passing fixture); directories exercise the
# whole-program rules over multi-file mini-projects.
FIXTURE_PAIRS = {
    "R1": ("r1_fail.py", "r1_pass.py"),
    "R2": ("r2_fail.py", "r2_pass.py"),
    "R6": ("simulation/r6_fail.py", "simulation/r6_pass.py"),
    "R9": ("r9_fail.py", "r9_pass.py"),
    "R10": ("r10_fail", "r10_pass"),
    "R11": ("service/r11_fail.py", "service/r11_pass.py"),
    "R12": ("r12_fail.py", "r12_pass.py"),
    "R13": ("r13_fail", "r13_pass"),
    "R15": ("service/r15_fail.py", "service/r15_pass.py"),
}


def codes(diags):
    """The set of rule codes present in a diagnostic list."""
    return {d.code for d in diags}


# ----------------------------------------------------------------------
# per-rule fixtures: the no-bleed property
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", ALL_CODES)
def test_failing_fixture_flags_exactly_its_rule(code):
    """Every rule's failing fixture triggers that rule and nothing else
    under the FULL rule set — fixtures must not bleed across rules."""
    fail, _ = FIXTURE_PAIRS[code]
    diags = lint_paths([FIXTURES / fail])
    assert codes(diags) == {code}, [d.render() for d in diags]


@pytest.mark.parametrize("code", ALL_CODES)
def test_passing_fixture_is_clean(code):
    _, ok = FIXTURE_PAIRS[code]
    diags = lint_paths([FIXTURES / ok])
    assert diags == [], [d.render() for d in diags]


def test_r1_counts_every_global_rng_use():
    diags = lint_file(FIXTURES / "r1_fail.py", [get_rule("R1")]).diagnostics
    messages = " ".join(d.message for d in diags)
    assert "np.random.seed" in messages
    assert "np.random.uniform" in messages
    assert "stdlib 'random'" in messages
    assert "without an explicit seed=" in messages


def test_r1_wall_clock_only_in_hot_paths(tmp_path):
    src = "import time\n\ndef f():\n    return time.time()\n"
    outside = tmp_path / "analysis_helper.py"
    outside.write_text(src)
    assert lint_file(outside, [get_rule("R1")]).diagnostics == []
    diags = lint_file(FIXTURES / "simulation" / "r1_wallclock_fail.py",
                      [get_rule("R1")]).diagnostics
    assert len(diags) == 1 and "wall-clock" in diags[0].message


def test_r2_suggests_units_constants():
    diags = lint_file(FIXTURES / "r2_fail.py", [get_rule("R2")]).diagnostics
    messages = " ".join(d.message for d in diags)
    assert "write DAY" in messages
    assert "HOUR" in messages
    assert "MINUTE" in messages
    assert "timeout_ms" in messages  # the naming-convention arm


# ----------------------------------------------------------------------
# whole-program rules
# ----------------------------------------------------------------------


def test_r6_names_each_seed_flow_hazard():
    diags = lint_paths([FIXTURES / "simulation" / "r6_fail.py"])
    messages = " ".join(d.message for d in diags)
    assert "draws OS entropy" in messages
    assert "no seed/rng parameter" in messages
    assert "drops the threaded seed" in messages
    assert "shadows the threaded seed" in messages
    assert len(diags) == 4


def test_r6_only_applies_to_seeded_packages(tmp_path):
    """The same hazards outside traces/simulation/experiments are not
    R6's business (library code may legitimately be caller-seeded)."""
    src = (FIXTURES / "simulation" / "r6_fail.py").read_text()
    outside = tmp_path / "helpers.py"
    outside.write_text(src)
    assert lint_paths([outside]) == []


def test_r9_flags_declared_and_inferred_guards():
    diags = lint_file(FIXTURES / "r9_fail.py", [get_rule("R9")]).diagnostics
    messages = [d.message for d in diags]
    assert len(diags) == 2
    assert any("is declared guarded-by '_lock'" in m for m in messages)
    assert any("inferred guarded-by '_lock'" in m for m in messages)
    assert all("outside a 'with self._lock:' region" in m for m in messages)


def test_r9_rejects_annotation_naming_unknown_lock(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "from __future__ import annotations\n"
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.items = []  # reprolint: guarded-by=_mutex\n"
    )
    diags = lint_file(f, [get_rule("R9")]).diagnostics
    assert len(diags) == 1
    assert "creates no such lock attribute" in diags[0].message
    assert "_mutex" in diags[0].message


def test_r9_single_threaded_marker_exempts_method(tmp_path):
    src = (FIXTURES / "r9_pass.py").read_text()
    assert "# reprolint: single-threaded" in src
    stripped = tmp_path / "mod.py"
    stripped.write_text(src.replace("  # reprolint: single-threaded", ""))
    diags = lint_file(stripped, [get_rule("R9")]).diagnostics
    assert diags != []  # without the marker the unlocked reset is flagged


def test_r10_names_each_lifecycle_hazard():
    diags = lint_paths([FIXTURES / "r10_fail"], select=["R10"])
    messages = " ".join(d.message for d in diags)
    assert "the segment leaks when the block raises" in messages or (
        "not a try block releasing it" in messages
    )
    assert "temp-then-os.replace idiom" in messages
    assert "no method ever shuts them down" in messages
    assert len(diags) == 3


def test_r10_ownership_transfer_is_not_a_leak(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "from __future__ import annotations\n"
        "from multiprocessing import shared_memory\n"
        "def make(size):\n"
        "    return shared_memory.SharedMemory(create=True, size=size)\n"
    )
    assert lint_file(f, [get_rule("R10")]).diagnostics == []


def test_r11_flags_every_contract_breach():
    diags = lint_paths([FIXTURES / "service" / "r11_fail.py"])
    messages = " ".join(d.message for d in diags)
    assert "emits more than one envelope" in messages
    assert "a return path that emits no envelope" in messages
    assert "never emits an envelope" in messages
    assert "returns exit code 3" in messages
    assert "'print(...)' writes stdout" in messages
    assert "bypasses the envelope" in messages
    assert "'sys.exit(5)'" in messages
    assert len(diags) == 7


def test_r12_flags_each_thread_hazard():
    diags = lint_file(FIXTURES / "r12_fail.py", [get_rule("R12")]).diagnostics
    messages = [d.message for d in diags]
    assert any("explicit daemon= flag" in m for m in messages)
    assert any("the failure is swallowed" in m for m in messages)
    joinless = [m for m in messages if "shutdown path 'shutdown'" in m]
    assert len(joinless) == 2  # join() and wait(), both timeout-free
    assert len(diags) == 4


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


def _r2(path):
    return lint_file(path, [get_rule("R2")]).diagnostics


def test_pragma_silences_named_rule_on_that_line_only(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a():\n"
        "    mtbf = 86400.0  # reprolint: disable=R2\n"
        "def b():\n"
        "    mtbf = 86400.0\n"
    )
    assert [d.line for d in _r2(f)] == [4]


def test_pragma_accepts_rule_name_and_all(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a():\n"
        "    mtbf = 86400.0  # reprolint: disable=unit-safety\n"
        "def b():\n"
        "    mtbf = 86400.0  # reprolint: disable=all\n"
    )
    assert _r2(f) == []


def test_pragma_for_other_rule_does_not_silence(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text("def a():\n    mtbf = 86400.0  # reprolint: disable=R1\n")
    assert len(_r2(f)) == 1


def test_pragma_multi_rule_comma_list(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text("mtbf = 86400.0; import random  # reprolint: disable=R1,R2\n")
    diags = lint_file(f, [get_rule("R1"), get_rule("R2")]).diagnostics
    assert diags == [], [d.render() for d in diags]


def test_pragma_trailing_justification_text(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a():\n"
        "    mtbf = 86400.0  # reprolint: disable=R2 dimensionless factor\n"
    )
    assert _r2(f) == []


def test_pragma_justification_does_not_widen_to_later_chunks(tmp_path):
    """Once a chunk carries free text, later comma-separated words are
    justification, not extra rule keys."""
    f = tmp_path / "mod.py"
    f.write_text(
        "mtbf = 86400.0; import random"
        "  # reprolint: disable=R2 factor, R1 would be wrong\n"
    )
    diags = lint_file(f, [get_rule("R1"), get_rule("R2")]).diagnostics
    assert codes(diags) == {"R1"}


def test_pragma_on_decorator_line_covers_the_def(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "from __future__ import annotations\n"
        "import functools\n"
        "@functools.lru_cache  # reprolint: disable=R2\n"
        "def f(timeout_ms=5):\n"
        "    return timeout_ms\n"
    )
    assert _r2(f) == []
    # without the pragma the diagnostic anchors at the def line
    g = tmp_path / "bare.py"
    g.write_text(
        "from __future__ import annotations\n"
        "import functools\n"
        "@functools.lru_cache\n"
        "def f(timeout_ms=5):\n"
        "    return timeout_ms\n"
    )
    assert [d.line for d in _r2(g)] == [4]


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------


def test_registry_exposes_nine_rules():
    assert [r.code for r in all_rules()] == ALL_CODES
    assert get_rule("unit-safety").code == "R2"
    assert get_rule("seed-flow").code == "R6"
    assert get_rule("lock-discipline").code == "R9"
    assert get_rule("envelope-conformance").code == "R11"
    assert get_rule("determinism-taint").code == "R13"
    assert get_rule("service-exception-contract").code == "R15"
    for removed in ("R3", "R4", "R5", "R7", "R8", "R14"):
        with pytest.raises(KeyError):
            get_rule(removed)


def test_project_rules_are_discriminated_from_file_rules():
    for code in ("R1", "R2", "R9", "R10", "R12"):
        assert not is_project_rule(get_rule(code))
    for code in ("R6", "R11", "R13", "R15"):
        assert is_project_rule(get_rule(code))


def test_directory_walk_skips_fixture_violations_and_cache():
    walked = list(iter_python_files([REPO / "tests"]))
    assert all("fixtures" not in f.parts for f in walked)
    assert any(f.name == "test_lint.py" for f in walked)


def test_explicit_fixture_path_is_still_linted():
    assert lint_paths([FIXTURES / "r2_fail.py"]) != []


def test_parse_error_is_reported_not_raised(tmp_path):
    f = tmp_path / "broken.py"
    f.write_text("def broken(:\n")
    diags = lint_file(f).diagnostics
    assert len(diags) == 1 and diags[0].code == "E0"


def test_non_utf8_file_is_reported_not_raised(tmp_path):
    f = tmp_path / "latin.py"
    f.write_bytes(b'"""caf\xe9"""\nx = 1\n')
    diags = lint_paths([f])
    assert len(diags) == 1 and diags[0].code == "E0"
    assert "UTF-8" in diags[0].message


def test_unreadable_path_is_reported_not_raised(tmp_path):
    trap = tmp_path / "dir_pretending.py"
    trap.mkdir()
    diags = lint_file(trap).diagnostics
    assert len(diags) == 1 and diags[0].code == "E0"
    assert "cannot read" in diags[0].message


def test_select_restricts_rules():
    diags = lint_paths([FIXTURES / "r2_fail.py"], select=["R1"])
    assert diags == []


# ----------------------------------------------------------------------
# CLI + clean tree
# ----------------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["lint", str(FIXTURES / "r2_fail.py")]) == 1
    env = json.loads(capsys.readouterr().out)  # stdout is the envelope
    assert "R2" in {d["code"] for d in env["data"]["diagnostics"]}
    assert main(["lint", str(FIXTURES / "r2_pass.py")]) == 0
    assert main(["lint", "--select", "bogus", "src"]) == 2
    assert main(["lint", str(REPO / "no-such-dir")]) == 2
    broken = tmp_path / "latin.py"
    broken.write_bytes(b"x = '\xff'\n")
    assert main(["lint", str(broken)]) == 2  # E0 is a hard error


def test_cli_json_format(capsys):
    """The envelope's data is the report: file count plus one record per
    finding, its witness chain included."""
    assert main(["lint", str(FIXTURES / "r13_fail")]) == 1
    doc = json.loads(capsys.readouterr().out)["data"]
    assert doc["files"] == 2
    [diag] = doc["diagnostics"]
    assert {"path", "line", "col", "code", "name", "message"} <= set(diag)
    assert diag["code"] == "R13"
    assert [s["function"].rsplit(".", 1)[-1] for s in diag["trace"]] == [
        "step", "advance", "stamp"
    ]


@pytest.fixture(scope="module")
def real_tree_lint():
    """One ``repro lint src tests`` run over the real tree, through the
    CLI, shared by the gates below: (exit code, envelope, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["lint", "src", "tests"])
    return code, json.loads(out.getvalue()), err.getvalue()


def _codes_found(env) -> set[str]:
    return {d["code"] for d in env["data"]["diagnostics"]}


def test_repro_lint_src_and_tests_clean_with_all_rules(real_tree_lint):
    """The acceptance gate: ``repro lint src tests`` exits 0 — the real
    tree passes its own linter, every rule enabled, through the CLI."""
    code, env, err = real_tree_lint
    assert code == 0, err
    assert env["ok"] and env["data"]["diagnostics"] == []


def test_repro_lint_src_is_clean(real_tree_lint):
    """The gate linted every file under src (and tests) and found
    nothing there."""
    code, env, err = real_tree_lint
    assert env["data"]["files"] == len(
        list(iter_python_files([REPO / "src", REPO / "tests"]))
    )
    src_hits = [d for d in env["data"]["diagnostics"]
                if (REPO / d["path"]).resolve().is_relative_to(REPO / "src")]
    assert src_hits == [], err


def test_cli_concurrency_rules_clean_on_real_tree(real_tree_lint):
    """R9-R12 are in the default rule set and pass over the real tree
    via the CLI."""
    code, env, err = real_tree_lint
    concurrency = {"R9", "R10", "R11", "R12"}
    assert concurrency <= {r.code for r in all_rules()}
    assert _codes_found(env) & concurrency == set(), err


def test_cli_interprocedural_rules_clean_on_real_tree(real_tree_lint):
    """The interprocedural rules R13 and R15 are in the default rule set
    and pass over the real tree via the CLI."""
    code, env, err = real_tree_lint
    interproc = {"R13", "R15"}
    assert all(is_project_rule(get_rule(c)) for c in interproc)
    assert _codes_found(env) & interproc == set(), err


# ----------------------------------------------------------------------
# interprocedural layer: witness traces
# ----------------------------------------------------------------------


def test_r13_trace_names_every_chain_function():
    """The acceptance chain: a two-hop indirect time.time read carries a
    witness trace naming every function on the way to the source."""
    report = run_lint([FIXTURES / "r13_fail"])
    [diag] = report.diagnostics
    assert diag.code == "R13"
    names = [s.function.rsplit(".", 1)[-1] for s in diag.trace]
    assert names == ["step", "advance", "stamp"]
    assert diag.trace[-1].note == "reads time.time()"
    assert all(s.line >= 1 and s.col >= 1 for s in diag.trace)


def test_r13_text_report_prints_the_call_chain():
    [diag] = run_lint([FIXTURES / "r13_fail"]).diagnostics
    text = format_diagnostic(diag)
    assert text.splitlines()[0] == diag.render()
    for step, line in zip(diag.trace, text.splitlines()[1:]):
        assert line == f"    {step.render()}"
    for name in ("step", "advance", "stamp"):
        assert name in text


def test_r13_real_tree_kernel_taint_is_empty():
    """The meta-test behind the R13 gate: no core/simulation/traces
    function transitively reaches an ambient-state source."""
    from repro.lint.interproc import in_kernel_tier
    from repro.lint.project import ProjectModel

    results = [lint_file(path, []) for path in iter_python_files([REPO / "src"])]
    analysis = ProjectModel([r.module for r in results]).analysis()
    tainted = {
        f"{mod.module}.{fn.qualname}": sorted(
            analysis.taints(f"{mod.module}.{fn.qualname}")
        )
        for mod, fn in analysis.model.functions()
        if in_kernel_tier(mod)
        and not fn.is_test
        and analysis.taints(f"{mod.module}.{fn.qualname}")
    }
    assert tainted == {}


def test_r15_trace_walks_handler_to_origin():
    report = run_lint([FIXTURES / "service" / "r15_fail.py"])
    [diag] = [
        d for d in report.diagnostics
        if "do_GET" in d.message and "unguarded raise" in d.message
    ]
    names = [s.function.rsplit(".", 1)[-1] for s in diag.trace]
    assert names == ["do_GET", "_route", "_dispatch"]


def test_cli_prints_call_chain(capsys):
    assert main(["lint", str(FIXTURES / "service" / "r15_fail.py")]) == 1
    err = capsys.readouterr().err
    assert "do_GET" in err and "_dispatch — raises here" in err


# ----------------------------------------------------------------------
# the envelope contract over the real CLI
# ----------------------------------------------------------------------


def test_every_cli_handler_emits_exactly_one_envelope():
    """R11's meta-property over the real CLI: every cmd_* subcommand
    handler has CFG emission bounds of exactly (1, 1) — one envelope on
    every return path, including exception edges."""
    from repro.lint.project import ProjectModel
    from repro.lint.rules.envelope_conformance import handler_emission_bounds

    files = [REPO / "src" / "repro" / "cli.py"] + sorted(
        (REPO / "src" / "repro" / "service").glob("*.py")
    )
    model = ProjectModel([lint_file(f, []).module for f in files])
    bounds = handler_emission_bounds(model)
    handlers = {f for f in bounds if f.startswith("repro.cli.cmd_")}
    assert len(handlers) >= 10  # every subcommand rides through here
    for fqid, b in sorted(bounds.items()):
        assert b == (1, 1), f"{fqid}: emission bounds {b}"
