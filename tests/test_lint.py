"""reprolint: rule fixtures, pragmas, engine mechanics, cache, CLI.

Each rule R1-R15 is demonstrated by a failing and a passing fixture under
``tests/fixtures/lint/`` (never collected by pytest, never swept up by
directory-walk linting).  The property-style pair test asserts each
failing fixture triggers *exactly* its own rule — no cross-rule bleed —
and each passing fixture is completely clean under the full rule set.
The capstone test asserts the real tree passes its own linter:
``repro lint src tests`` must exit 0.

The interprocedural layer (call graph, R13-R15, ``--explain`` traces,
the lint baseline and the project-level cache) is covered in its own
sections toward the end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import all_rules, get_rule, lint_file, lint_paths, run_lint
from repro.lint.cache import LintCache
from repro.lint.engine import iter_python_files
from repro.lint.formats import render_report
from repro.lint.registry import is_interprocedural, is_project_rule

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"

ALL_CODES = [
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8",
    "R9", "R10", "R11", "R12", "R13", "R14", "R15",
]

# code -> (failing fixture, passing fixture); directories exercise the
# whole-program rules over multi-file mini-projects.
FIXTURE_PAIRS = {
    "R1": ("r1_fail.py", "r1_pass.py"),
    "R2": ("r2_fail.py", "r2_pass.py"),
    "R3": ("r3_fail.py", "r3_pass.py"),
    "R4": ("r4_fail.py", "r4_pass.py"),
    "R5": ("test_r5_fail.py", "test_r5_pass.py"),
    "R6": ("simulation/r6_fail.py", "simulation/r6_pass.py"),
    "R7": ("r7_fail.py", "r7_pass.py"),
    "R8": ("r8_fail", "r8_pass"),
    "R9": ("r9_fail.py", "r9_pass.py"),
    "R10": ("r10_fail", "r10_pass"),
    "R11": ("service/r11_fail.py", "service/r11_pass.py"),
    "R12": ("r12_fail.py", "r12_pass.py"),
    "R13": ("r13_fail", "r13_pass"),
    "R14": ("r14_fail.py", "r14_pass.py"),
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
    diags = lint_file(FIXTURES / "r1_fail.py", [get_rule("R1")])
    messages = " ".join(d.message for d in diags)
    assert "np.random.seed" in messages
    assert "np.random.uniform" in messages
    assert "stdlib 'random'" in messages
    assert "without an explicit seed=" in messages


def test_r1_wall_clock_only_in_hot_paths(tmp_path):
    src = "import time\n\ndef f():\n    return time.time()\n"
    outside = tmp_path / "analysis_helper.py"
    outside.write_text(src)
    assert lint_file(outside, [get_rule("R1")]) == []
    diags = lint_file(FIXTURES / "simulation" / "r1_wallclock_fail.py",
                      [get_rule("R1")])
    assert len(diags) == 1 and "wall-clock" in diags[0].message


def test_r2_suggests_units_constants():
    diags = lint_file(FIXTURES / "r2_fail.py", [get_rule("R2")])
    messages = " ".join(d.message for d in diags)
    assert "write DAY" in messages
    assert "HOUR" in messages
    assert "MINUTE" in messages
    assert "timeout_ms" in messages  # the naming-convention arm


def test_r3_exempts_tolerance_helpers(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def assert_approx_zero(x):\n"
        "    return x == 0.0\n"
        "def outside(x):\n"
        "    return x == 0.0\n"
    )
    diags = lint_file(f, [get_rule("R3")])
    assert len(diags) == 1
    assert diags[0].line == 4


def test_r4_flags_each_hygiene_hazard():
    diags = lint_file(FIXTURES / "r4_fail.py", [get_rule("R4")])
    messages = [d.message for d in diags]
    assert any("mutable default" in m for m in messages)
    assert any("bare 'except:'" in m for m in messages)
    assert any("swallows the error" in m for m in messages)
    assert len(diags) == 3


def test_r4_requires_future_annotations(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text('"""Doc."""\n\nX = 1\n')
    diags = lint_file(f, [get_rule("R4")])
    assert len(diags) == 1
    assert "from __future__ import annotations" in diags[0].message
    assert diags[0].fix is not None
    # docstring-only modules are exempt — nothing needs annotating
    g = tmp_path / "empty.py"
    g.write_text('"""Only a docstring."""\n')
    assert lint_file(g, [get_rule("R4")]) == []


def test_r5_respects_class_and_module_markers(tmp_path):
    body = (
        "    for i in range(500):\n"
        "        simulate_job(1, 2, 3)\n"
    )
    marked_module = tmp_path / "test_marked_mod.py"
    marked_module.write_text(
        "import pytest\nfrom repro.simulation import simulate_job\n"
        "pytestmark = pytest.mark.slow\n"
        f"def test_heavy():\n{body}"
    )
    assert lint_file(marked_module, [get_rule("R5")]) == []
    marked_class = tmp_path / "test_marked_cls.py"
    marked_class.write_text(
        "import pytest\nfrom repro.simulation import simulate_job\n"
        "@pytest.mark.slow\nclass TestHeavy:\n"
        f"    def test_heavy(self):\n    {body.replace(chr(10), chr(10) + '    ')}\n"
    )
    assert lint_file(marked_class, [get_rule("R5")]) == []


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


def test_r7_names_each_unit_propagation_hazard():
    diags = lint_paths([FIXTURES / "r7_fail.py"])
    messages = " ".join(d.message for d in diags)
    assert "bare literal 86400" in messages
    assert "names a non-second unit" in messages
    assert "count-valued" in messages
    assert "time-valued" in messages
    assert len(diags) == 4


def test_r8_reports_every_drifted_layer():
    diags = lint_paths([FIXTURES / "r8_fail"])
    messages = " ".join(d.message for d in diags)
    assert "'DalyHigh' is not exported" in messages
    assert "no 'liu' policy choice" in messages
    assert "'Bouguerra' is never constructed" in messages
    assert "'PeriodLB' column constant" in messages
    assert "never mentions policy 'DPMakespan'" in messages
    assert len(diags) == 5


def test_r8_inactive_without_a_policies_module(tmp_path):
    f = tmp_path / "plain.py"
    f.write_text("from __future__ import annotations\n\nX = 1\n")
    assert lint_paths([f], select=["R8"]) == []


def test_r9_flags_declared_and_inferred_guards():
    diags = lint_file(FIXTURES / "r9_fail.py", [get_rule("R9")])
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
    diags = lint_file(f, [get_rule("R9")])
    assert len(diags) == 1
    assert "creates no such lock attribute" in diags[0].message
    assert "_mutex" in diags[0].message


def test_r9_single_threaded_marker_exempts_method(tmp_path):
    src = (FIXTURES / "r9_pass.py").read_text()
    assert "# reprolint: single-threaded" in src
    stripped = tmp_path / "mod.py"
    stripped.write_text(src.replace("  # reprolint: single-threaded", ""))
    diags = lint_file(stripped, [get_rule("R9")])
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
    assert lint_file(f, [get_rule("R10")]) == []


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
    diags = lint_file(FIXTURES / "r12_fail.py", [get_rule("R12")])
    messages = [d.message for d in diags]
    assert any("explicit daemon= flag" in m for m in messages)
    assert any("the failure is swallowed" in m for m in messages)
    joinless = [m for m in messages if "shutdown path 'shutdown'" in m]
    assert len(joinless) == 2  # join() and wait(), both timeout-free
    assert len(diags) == 4


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


def test_pragma_silences_named_rule_on_that_line_only(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a(x):\n"
        "    return x == 1.5  # reprolint: disable=R3\n"
        "def b(x):\n"
        "    return x == 1.5\n"
    )
    diags = lint_file(f, [get_rule("R3")])
    assert [d.line for d in diags] == [4]


def test_pragma_accepts_rule_name_and_all(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a(x):\n"
        "    return x == 1.5  # reprolint: disable=float-eq\n"
        "def b(x):\n"
        "    return x == 1.5  # reprolint: disable=all\n"
    )
    assert lint_file(f, [get_rule("R3")]) == []


def test_pragma_for_other_rule_does_not_silence(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text("def a(x):\n    return x == 1.5  # reprolint: disable=R2\n")
    assert len(lint_file(f, [get_rule("R3")])) == 1


def test_pragma_multi_rule_comma_list(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a(x):\n"
        "    mtbf = 86400.0; ok = x == 1.5  # reprolint: disable=R2,R3\n"
    )
    diags = lint_file(f, [get_rule("R2"), get_rule("R3")])
    assert diags == [], [d.render() for d in diags]


def test_pragma_trailing_justification_text(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "def a(x):\n"
        "    mtbf = 86400.0  # reprolint: disable=R2 dimensionless factor\n"
    )
    assert lint_file(f, [get_rule("R2")]) == []


def test_pragma_justification_does_not_widen_to_later_chunks(tmp_path):
    """Once a chunk carries free text, later comma-separated words are
    justification, not extra rule keys."""
    f = tmp_path / "mod.py"
    f.write_text(
        "def a(x):\n"
        "    mtbf = 86400.0; ok = x == 1.5"
        "  # reprolint: disable=R2 factor, R3 would be wrong\n"
    )
    diags = lint_file(f, [get_rule("R2"), get_rule("R3")])
    assert codes(diags) == {"R3"}


def test_pragma_on_decorator_line_covers_the_def(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "from __future__ import annotations\n"
        "import functools\n"
        "@functools.lru_cache  # reprolint: disable=R2\n"
        "def f(timeout_ms=5):\n"
        "    return timeout_ms\n"
    )
    assert lint_file(f, [get_rule("R2")]) == []
    # without the pragma the diagnostic anchors at the def line
    g = tmp_path / "bare.py"
    g.write_text(
        "from __future__ import annotations\n"
        "import functools\n"
        "@functools.lru_cache\n"
        "def f(timeout_ms=5):\n"
        "    return timeout_ms\n"
    )
    assert [d.line for d in lint_file(g, [get_rule("R2")])] == [4]


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------


def test_registry_exposes_fifteen_rules():
    assert [r.code for r in all_rules()] == ALL_CODES
    assert get_rule("unit-safety").code == "R2"
    assert get_rule("seed-flow").code == "R6"
    assert get_rule("lock-discipline").code == "R9"
    assert get_rule("envelope-conformance").code == "R11"
    assert get_rule("determinism-taint").code == "R13"
    assert get_rule("knob-parity").code == "R14"
    assert get_rule("service-exception-contract").code == "R15"
    with pytest.raises(KeyError):
        get_rule("R99")


def test_project_rules_are_discriminated_from_file_rules():
    for code in ("R2", "R9", "R10", "R12"):
        assert not is_project_rule(get_rule(code))
    for code in ("R6", "R7", "R8", "R11", "R13", "R14", "R15"):
        assert is_project_rule(get_rule(code))
    for code in ("R13", "R14", "R15"):
        assert is_interprocedural(get_rule(code))
    for code in ("R6", "R7", "R8", "R11"):
        assert not is_interprocedural(get_rule(code))


def test_directory_walk_skips_fixture_violations_and_cache():
    walked = list(iter_python_files([REPO / "tests"]))
    assert all("fixtures" not in f.parts for f in walked)
    assert any(f.name == "test_lint.py" for f in walked)


def test_directory_walk_skips_reprolint_cache(tmp_path):
    (tmp_path / ".reprolint-cache").mkdir()
    (tmp_path / ".reprolint-cache" / "stale.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    walked = list(iter_python_files([tmp_path]))
    assert [f.name for f in walked] == ["real.py"]


def test_explicit_fixture_path_is_still_linted():
    assert lint_paths([FIXTURES / "r4_fail.py"]) != []


def test_parse_error_is_reported_not_raised(tmp_path):
    f = tmp_path / "broken.py"
    f.write_text("def broken(:\n")
    diags = lint_file(f)
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
    diags = lint_file(trap)
    assert len(diags) == 1 and diags[0].code == "E0"
    assert "cannot read" in diags[0].message


def test_select_restricts_rules():
    diags = lint_paths([FIXTURES / "r4_fail.py"], select=["R3"])
    assert diags == []


# ----------------------------------------------------------------------
# incremental cache + parallel pass
# ----------------------------------------------------------------------


def _fixture_args():
    return [FIXTURES / f for f, _ in FIXTURE_PAIRS.values()]


def test_warm_cache_relints_with_zero_reparses(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_lint(_fixture_args(), cache=LintCache(cache_dir))
    assert cold.parsed == cold.files and cold.cached == 0
    warm = run_lint(_fixture_args(), cache=LintCache(cache_dir))
    assert warm.parsed == 0 and warm.cached == warm.files
    assert [d.render() for d in warm.diagnostics] == [
        d.render() for d in cold.diagnostics
    ]


def test_select_change_rekeys_cache(tmp_path):
    """The cache key includes the active rule selection: only the rules
    that actually ran are cached, so changing --select re-analyzes once
    and is warm thereafter under the new key."""
    cache_dir = tmp_path / "cache"
    full = run_lint([FIXTURES / "r2_fail.py"], cache=LintCache(cache_dir))
    assert full.parsed == 1
    narrowed = run_lint(
        [FIXTURES / "r2_fail.py"], select=["R2"], cache=LintCache(cache_dir)
    )
    assert narrowed.parsed == 1  # new selection -> new key -> re-analyzed
    assert codes(narrowed.diagnostics) == {"R2"}
    warm = run_lint(
        [FIXTURES / "r2_fail.py"], select=["R2"], cache=LintCache(cache_dir)
    )
    assert warm.parsed == 0 and warm.cached == 1
    assert codes(warm.diagnostics) == {"R2"}


def test_rule_source_change_invalidates_cache(tmp_path, monkeypatch):
    """The signature hashes each selected rule's module source, so
    editing a rule invalidates entries even for unchanged files."""
    import repro.lint.cache as cache_mod

    cache_dir = tmp_path / "cache"
    first = run_lint([FIXTURES / "r2_fail.py"], cache=LintCache(cache_dir))
    assert first.parsed == 1
    monkeypatch.setattr(
        cache_mod, "_rule_source", lambda rule: f"edited {rule.code}"
    )
    second = run_lint([FIXTURES / "r2_fail.py"], cache=LintCache(cache_dir))
    assert second.parsed == 1  # rule sources "changed" -> cold again


def test_cache_invalidates_on_content_change(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n\nX = 1\n")
    cache_dir = tmp_path / "cache"
    first = run_lint([mod], cache=LintCache(cache_dir))
    assert first.parsed == 1 and first.diagnostics == []
    mod.write_text(
        "from __future__ import annotations\n\n"
        "def f(x):\n    return x == 1.5\n"
    )
    second = run_lint([mod], cache=LintCache(cache_dir))
    assert second.parsed == 1
    assert codes(second.diagnostics) == {"R3"}


def test_parallel_jobs_match_serial(tmp_path):
    serial = run_lint(_fixture_args())
    parallel = run_lint(_fixture_args(), jobs=2)
    assert [d.render() for d in parallel.diagnostics] == [
        d.render() for d in serial.diagnostics
    ]


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------


def test_json_format_carries_engine_counters():
    report = run_lint([FIXTURES / "r2_fail.py"])
    doc = json.loads(render_report(report, "json"))
    assert doc["tool"] == "reprolint"
    assert doc["files"] == 1 and doc["parsed"] == 1 and doc["cached"] == 0
    assert all(d["code"] == "R2" for d in doc["diagnostics"])
    assert {"path", "line", "col", "code", "name", "message"} <= set(
        doc["diagnostics"][0]
    )


def test_sarif_output_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    report = run_lint([FIXTURES / "r2_fail.py"])
    doc = json.loads(render_report(report, "sarif"))
    schema = json.loads(
        (REPO / "tests" / "fixtures" / "sarif-2.1.0-subset.schema.json")
        .read_text(encoding="utf-8")
    )
    jsonschema.validate(doc, schema)
    assert doc["version"] == "2.1.0"
    driver = doc["runs"][0]["tool"]["driver"]
    assert driver["name"] == "reprolint"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert set(ALL_CODES) | {"E0"} <= rule_ids
    results = doc["runs"][0]["results"]
    assert results and all(r["ruleId"] == "R2" for r in results)
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_marks_parse_errors_as_errors(tmp_path):
    f = tmp_path / "broken.py"
    f.write_text("def broken(:\n")
    doc = json.loads(render_report(run_lint([f]), "sarif"))
    assert doc["runs"][0]["results"][0]["level"] == "error"


# ----------------------------------------------------------------------
# autofix
# ----------------------------------------------------------------------


def test_fix_rewrites_unit_literals_and_adds_imports(tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Fixture for --fix."""\n'
        "\n"
        "\n"
        "def plan(work=1728000.0, downtime=60):\n"
        "    mtbf = 86400.0\n"
        "    return work + mtbf + downtime\n"
    )
    assert main(["lint", str(target), "--fix"]) == 0
    text = target.read_text()
    assert "from __future__ import annotations" in text
    assert "work=20 * DAY" in text
    assert "downtime=MINUTE" in text
    assert "mtbf = DAY" in text
    assert "from repro.units import DAY, MINUTE" in text
    compile(text, str(target), "exec")  # the rewrite must stay valid Python


def test_fix_is_idempotent(tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Fixture for --fix."""\n'
        "\n"
        "\n"
        "def plan(work=1728000.0):\n"
        "    return work\n"
    )
    assert main(["lint", str(target), "--fix"]) == 0
    once = target.read_text()
    assert main(["lint", str(target), "--fix"]) == 0
    assert target.read_text() == once


def test_fix_parenthesizes_when_precedence_demands(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "from __future__ import annotations\n"
        "\n"
        "def plan(period=120 ** 2):\n"
        "    return period\n"
    )
    from repro.lint.fixes import apply_fixes

    diags = lint_file(target, [get_rule("R2")])
    assert len(diags) == 1 and diags[0].fix is not None
    apply_fixes(diags)
    text = target.read_text()
    assert "(2 * MINUTE) ** 2" in text
    compile(text, str(target), "exec")


def test_fix_redirects_print_to_hlog(tmp_path):
    """R11's mechanical fix: bare one-argument print() becomes hlog()
    with the import added; the rewritten module re-lints clean."""
    from repro.lint.fixes import apply_fixes

    service = tmp_path / "service"
    service.mkdir()
    target = service / "mod.py"
    target.write_text(
        "from __future__ import annotations\n"
        "\n"
        'print("starting up")\n'
    )
    report = run_lint([target], select=["R11"])
    assert codes(report.diagnostics) == {"R11"}
    assert report.diagnostics[0].fix is not None
    apply_fixes(report.diagnostics)
    text = target.read_text()
    assert 'hlog("starting up")' in text
    assert "from repro.service.envelope import hlog" in text
    compile(text, str(target), "exec")
    assert run_lint([target], select=["R11"]).diagnostics == []


def test_fix_adds_explicit_daemon_flag(tmp_path):
    from repro.lint.fixes import apply_fixes

    target = tmp_path / "mod.py"
    target.write_text(
        "from __future__ import annotations\n"
        "import threading\n"
        "\n"
        "def spawn(fn):\n"
        "    return threading.Thread(target=fn)\n"
    )
    diags = lint_file(target, [get_rule("R12")])
    assert len(diags) == 1 and diags[0].fix is not None
    apply_fixes(diags)
    text = target.read_text()
    assert "threading.Thread(target=fn, daemon=False)" in text
    compile(text, str(target), "exec")
    assert lint_file(target, [get_rule("R12")]) == []


# ----------------------------------------------------------------------
# CLI + clean tree
# ----------------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_cli_exit_codes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", str(FIXTURES / "r4_fail.py")]) == 1
    env = json.loads(capsys.readouterr().out)  # stdout is the envelope now
    assert "R4" in {d["code"] for d in env["data"]["diagnostics"]}
    assert main(["lint", str(FIXTURES / "r4_pass.py")]) == 0
    assert main(["lint", "--select", "bogus", "src"]) == 2
    assert main(["lint", str(REPO / "no-such-dir")]) == 2
    broken = tmp_path / "latin.py"
    broken.write_bytes(b"x = '\xff'\n")
    assert main(["lint", str(broken)]) == 2  # E0 is a hard error


def test_cli_json_format(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", "--format", "json",
                 str(FIXTURES / "r3_fail.py")]) == 1
    doc = json.loads(capsys.readouterr().out)["data"]
    assert codes_from_json(doc) == {"R3"}


def codes_from_json(doc):
    """Rule codes present in a ``--format json`` document."""
    return {d["code"] for d in doc["diagnostics"]}


def test_cli_no_cache_and_jobs_flags(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", "--no-cache", "--jobs", "2",
                 str(FIXTURES / "r2_pass.py")]) == 0
    assert not (tmp_path / "cache").exists()  # --no-cache wrote nothing


def test_repro_lint_src_is_clean():
    """The acceptance gate: the real tree passes its own linter."""
    diags = lint_paths([REPO / "src"])
    assert diags == [], [d.render() for d in diags]


def test_repro_lint_src_and_tests_clean_with_all_rules():
    """The full-tree gate with R1-R15 enabled — including the
    whole-program seed-flow, unit-propagation, registry,
    envelope-conformance and interprocedural flow checks."""
    diags = lint_paths([REPO / "src", REPO / "tests"])
    assert diags == [], [d.render() for d in diags]


def test_cli_concurrency_rules_clean_on_real_tree(capsys, tmp_path,
                                                  monkeypatch):
    """The new rule families pass over the swept tree via the CLI."""
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", "--select", "R9,R10,R11,R12",
                 str(REPO / "src")]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["data"]["diagnostics"] == []


def test_cli_interprocedural_rules_clean_on_real_tree(capsys, tmp_path,
                                                      monkeypatch):
    """R13-R15 pass over the swept tree via the CLI."""
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", "--select", "R13,R14,R15",
                 str(REPO / "src")]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["data"]["diagnostics"] == []


# ----------------------------------------------------------------------
# interprocedural layer: witness traces and --explain
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


def test_r13_explain_text_prints_the_call_chain():
    report = run_lint([FIXTURES / "r13_fail"])
    plain = render_report(report, "text")
    explained = render_report(report, "text", explain=True)
    assert "call chain:" not in plain
    assert "call chain:" in explained
    for name in ("step", "advance", "stamp"):
        assert name in explained


def test_r13_sarif_code_flow_names_every_chain_function():
    doc = json.loads(
        render_report(run_lint([FIXTURES / "r13_fail"]), "sarif")
    )
    [result] = doc["runs"][0]["results"]
    [flow] = result["codeFlows"]
    messages = [
        loc["location"]["message"]["text"]
        for loc in flow["threadFlows"][0]["locations"]
    ]
    assert len(messages) == 3
    for name, text in zip(("step", "advance", "stamp"), messages):
        assert name in text


def test_r13_real_tree_kernel_taint_is_empty():
    """The meta-test behind the R13 gate: no core/simulation/traces
    function transitively reaches an ambient-state source."""
    import ast

    from repro.lint.interproc import InterAnalysis, in_kernel_tier
    from repro.lint.project import ProjectModel, build_module_info

    modules = []
    for path in iter_python_files([REPO / "src"]):
        text = path.read_text(encoding="utf-8")
        modules.append(
            build_module_info(path, ast.parse(text), text.splitlines())
        )
    analysis = InterAnalysis(ProjectModel(modules))
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


def test_r14_fires_when_reference_branch_is_deleted(tmp_path):
    """The acceptance edit: delete the slow-path branch of a gated
    function and R14 appears."""
    mod = tmp_path / "engine.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def replay(values, vectorized=True):\n"
        "    if vectorized:\n"
        "        return [v + v for v in values]\n"
        "    return [v * 2 for v in values]\n"
    )
    assert lint_paths([mod]) == []
    mod.write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def replay(values, vectorized=True):\n"
        "    if vectorized:\n"
        "        return [v + v for v in values]\n"
    )
    diags = lint_paths([mod])
    assert codes(diags) == {"R14"}
    assert "vectorized" in diags[0].message


def test_r15_trace_walks_handler_to_origin():
    report = run_lint([FIXTURES / "service" / "r15_fail.py"])
    [diag] = [
        d for d in report.diagnostics
        if "do_GET" in d.message and "unguarded raise" in d.message
    ]
    names = [s.function.rsplit(".", 1)[-1] for s in diag.trace]
    assert names == ["do_GET", "_route", "_dispatch"]


def test_cli_explain_prints_call_chain(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", "--explain",
                 str(FIXTURES / "service" / "r15_fail.py")]) == 1
    assert "call chain:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# lint baseline
# ----------------------------------------------------------------------


def test_baseline_roundtrip_suppresses_then_goes_stale(tmp_path):
    from repro.lint.baseline import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )

    report = run_lint([FIXTURES / "r14_fail.py"])
    assert len(report.diagnostics) == 3
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, report.diagnostics)
    baseline = load_baseline(baseline_file)
    surviving, suppressed, stale = apply_baseline(
        report.diagnostics, baseline
    )
    assert surviving == [] and suppressed == 3 and stale == []
    # the tree improves: every entry has leftover capacity -> stale
    clean, kept, leftovers = apply_baseline([], baseline)
    assert clean == [] and kept == 0 and len(leftovers) == 3


def test_baseline_counts_absorb_exactly():
    from repro.lint.baseline import Baseline, apply_baseline
    from repro.lint.diagnostics import Diagnostic

    def diag(line):
        return Diagnostic(path="m.py", line=line, col=1, code="R14",
                          name="knob-parity", message="same finding")

    base = Baseline.from_diagnostics([diag(3), diag(9)])
    surviving, suppressed, stale = apply_baseline(
        [diag(4), diag(10), diag(30)], base
    )
    # two entries absorb two findings regardless of line; the third is new
    assert suppressed == 2 and len(surviving) == 1 and stale == []


def test_baseline_never_suppresses_parse_errors():
    from repro.lint.baseline import Baseline, apply_baseline
    from repro.lint.diagnostics import Diagnostic

    err = Diagnostic(path="m.py", line=1, col=1, code="E0",
                     name="parse-error", message="boom")
    base = Baseline.from_diagnostics([err])
    assert base.counts == {}
    surviving, suppressed, _ = apply_baseline([err], base)
    assert surviving == [err] and suppressed == 0


def test_cli_baseline_update_suppress_stale(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    mod = tmp_path / "mod.py"
    mod.write_text((FIXTURES / "r14_fail.py").read_text())
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(mod), "--update-baseline", str(baseline)]) == 0
    capsys.readouterr()
    # recorded findings no longer fail the run
    assert main(["lint", str(mod), "--baseline", str(baseline)]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["data"]["suppressed"] == 3
    assert env["data"]["diagnostics"] == []
    # the tree improves; leftover entries are stale and fail the run
    mod.write_text((FIXTURES / "r14_pass.py").read_text())
    assert main(["lint", str(mod), "--baseline", str(baseline)]) == 1
    captured = capsys.readouterr()
    env = json.loads(captured.out)
    assert env["data"]["stale_baseline"]
    assert "stale baseline" in captured.err


def test_cli_baseline_with_absent_file_is_clean(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.setenv("REPROLINT_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["lint", "--baseline", str(tmp_path / "none.json"),
                 str(FIXTURES / "r2_pass.py")]) == 0


def test_committed_baseline_is_empty():
    """The repo ships an empty baseline: the tree is clean and any new
    finding fails CI rather than being absorbed silently."""
    doc = json.loads((REPO / ".reprolint-baseline.json").read_text())
    assert doc == {"entries": [], "version": 1}


# ----------------------------------------------------------------------
# call-graph-aware project cache
# ----------------------------------------------------------------------


def _chain_project(proj):
    """a -> b -> c call chain plus an unrelated module d."""
    proj.mkdir(parents=True, exist_ok=True)
    (proj / "a.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "from b import g\n"
        "\n"
        "\n"
        "def f():\n"
        "    return g()\n"
    )
    (proj / "b.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "from c import h\n"
        "\n"
        "\n"
        "def g():\n"
        "    return h()\n"
    )
    (proj / "c.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def h():\n"
        "    return 1\n"
    )
    (proj / "d.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def unrelated():\n"
        "    return 2\n"
    )
    return proj


def test_project_cache_invalidates_transitive_callers_only(tmp_path):
    """The acceptance behavior: a leaf edit re-analyzes only that module
    plus its transitive callers; unrelated modules replay warm."""
    proj = _chain_project(tmp_path / "proj")
    cache_dir = tmp_path / "cache"
    cold = run_lint([proj], cache=LintCache(cache_dir))
    assert len(cold.project_reanalyzed) == 4 and cold.project_cached == []
    warm = run_lint([proj], cache=LintCache(cache_dir))
    assert warm.project_reanalyzed == [] and len(warm.project_cached) == 4
    (proj / "c.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def h():\n"
        "    return 3\n"
    )
    third = run_lint([proj], cache=LintCache(cache_dir))
    reanalyzed = {Path(p).name for p in third.project_reanalyzed}
    assert reanalyzed == {"a.py", "b.py", "c.py"}
    assert {Path(p).name for p in third.project_cached} == {"d.py"}


def test_project_cache_replays_diagnostics_with_traces(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_lint([FIXTURES / "r13_fail"], cache=LintCache(cache_dir))
    warm = run_lint([FIXTURES / "r13_fail"], cache=LintCache(cache_dir))
    assert warm.project_reanalyzed == []
    assert [d.render() for d in warm.diagnostics] == [
        d.render() for d in cold.diagnostics
    ]
    [diag] = warm.diagnostics
    assert [s.function for s in diag.trace] == [
        s.function for s in cold.diagnostics[0].trace
    ]


def test_every_cli_handler_emits_exactly_one_envelope():
    """R11's meta-property over the real CLI: every cmd_* subcommand
    handler has CFG emission bounds of exactly (1, 1) — one envelope on
    every return path, including exception edges."""
    from repro.lint.engine import _process_file
    from repro.lint.project import ModuleInfo, ProjectModel
    from repro.lint.rules.envelope_conformance import handler_emission_bounds

    files = [REPO / "src" / "repro" / "cli.py"] + sorted(
        (REPO / "src" / "repro" / "service").glob("*.py")
    )
    results = [_process_file(f, None) for f in files]
    model = ProjectModel(
        [ModuleInfo.from_json(r.module) for r in results if r.module]
    )
    bounds = handler_emission_bounds(model)
    handlers = {f for f in bounds if f.startswith("repro.cli.cmd_")}
    assert len(handlers) >= 10  # every subcommand rides through here
    for fqid, b in sorted(bounds.items()):
        assert b == (1, 1), f"{fqid}: emission bounds {b}"
