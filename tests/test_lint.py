"""Tests for the simulation-soundness checker (``repro check``).

Covers: every rule firing on its fixture module, the golden JSON
report, ``# repro: noqa`` suppression round-trips, the baseline-file
round-trip, CLI exit codes, and — the acceptance bar — the repo's own
analysed trees coming back clean.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.lint import REGISTRY, all_rules, lint_paths, render_json, render_text
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.engine import module_name
from repro.lint.reporters import json_document
from repro.util.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "data" / "lint_fixtures"
GOLDEN = REPO_ROOT / "tests" / "data" / "lint_golden.json"

FILE_RULE_IDS = {"DET001", "DET002", "CLK001", "CKP001", "EVT001", "FLT001",
                 "MET001", "MET002", "UNIT001", "BKD001", "RES001"}
#: project-scoped rules, produced only by the deep (interprocedural) pass
DEEP_RULE_IDS = {"CLK002", "DET003", "ORD001"}
ALL_RULE_IDS = FILE_RULE_IDS | DEEP_RULE_IDS


def lint_fixtures(**kwargs):
    return lint_paths([FIXTURES], root=FIXTURES, **kwargs)


def lint_snippet(tmp_path, source, *, package="repro/core", name="snippet.py", **kwargs):
    """Lint one synthetic module placed inside a fake package tree."""
    target = tmp_path / "src" / package / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([target], root=tmp_path, **kwargs)


class TestRegistry:
    def test_all_rules_registered(self):
        all_rules()  # populates on import
        assert set(REGISTRY) == ALL_RULE_IDS

    def test_rules_have_descriptions(self):
        for rule in all_rules():
            assert rule.description and rule.severity in ("error", "warning")


class TestModuleName:
    def test_src_layout(self):
        assert module_name(Path("src/repro/core/hhcpu.py")) == "repro.core.hhcpu"

    def test_fixture_layout(self):
        p = Path("tests/data/lint_fixtures/src/repro/kernels/unit001_case.py")
        assert module_name(p) == "repro.kernels.unit001_case"

    def test_package_init(self):
        assert module_name(Path("src/repro/obs/__init__.py")) == "repro.obs"

    def test_outside_repro(self):
        assert module_name(Path("tools/calibrate.py")) == "calibrate"


class TestFixtures:
    def test_every_rule_fires(self):
        result = lint_fixtures()
        assert {f.rule for f in result.findings} == FILE_RULE_IDS
        assert result.errors == len(result.findings) == 13  # CLK001 + CKP001 fire twice
        assert not result.ok

    def test_cli_exits_nonzero_on_fixture_tree(self, capsys):
        assert main(["check", str(FIXTURES)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_golden_json_report(self):
        result = lint_fixtures()
        assert json.loads(render_json(result)) == json.loads(GOLDEN.read_text())

    def test_json_document_shape(self):
        doc = json_document(lint_fixtures())
        assert doc["schema"] == "repro-lint/1"
        assert doc["summary"]["errors"] == 13
        for finding in doc["findings"]:
            assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}


class TestRepoIsClean:
    def test_repo_sources_pass(self):
        result = lint_paths(root=REPO_ROOT)
        assert result.files_checked > 50
        rendered = render_text(result)
        assert result.ok and not result.findings, f"\n{rendered}"
        # the justified host-timing suppressions: tools/calibrate.py,
        # benchmarks/conftest.py, the repro.bench harness boundary, and
        # the numba backend's JIT-compile accounting
        assert result.suppressed == 4

    def test_cli_exits_zero_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_cli_json_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check", "--format", "json", "--baseline"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["ok"] is True


class TestNoqa:
    SOURCE = "from time import perf_counter{marker}\n"

    def test_violation_without_marker(self, tmp_path):
        result = lint_snippet(tmp_path, self.SOURCE.format(marker=""))
        assert [f.rule for f in result.findings] == ["CLK001"]

    def test_bare_noqa_suppresses(self, tmp_path):
        src = self.SOURCE.format(marker="  # repro: noqa")
        result = lint_snippet(tmp_path, src)
        assert not result.findings and result.suppressed == 1

    def test_rule_scoped_noqa_suppresses(self, tmp_path):
        src = self.SOURCE.format(marker="  # repro: noqa[CLK001]")
        result = lint_snippet(tmp_path, src)
        assert not result.findings and result.suppressed == 1

    def test_wrong_rule_noqa_does_not_suppress(self, tmp_path):
        src = self.SOURCE.format(marker="  # repro: noqa[DET001]")
        result = lint_snippet(tmp_path, src)
        assert [f.rule for f in result.findings] == ["CLK001"]
        assert result.suppressed == 0

    def test_no_noqa_flag_round_trip(self, tmp_path):
        src = self.SOURCE.format(marker="  # repro: noqa")
        assert not lint_snippet(tmp_path, src).findings
        ignored = lint_snippet(tmp_path, src, respect_noqa=False)
        assert [f.rule for f in ignored.findings] == ["CLK001"]


class TestBaseline:
    def test_round_trip(self, tmp_path):
        found = lint_fixtures()
        assert found.findings
        path = tmp_path / "baseline.json"
        doc = write_baseline(path, found.findings)
        assert doc["version"] == 1 and len(doc["entries"]) == len(found.findings)

        rebased = lint_fixtures(baseline=load_baseline(path))
        assert not rebased.findings
        assert rebased.baselined == len(found.findings)
        assert rebased.ok

    def test_new_violation_not_excused(self, tmp_path):
        found = lint_fixtures()
        path = tmp_path / "baseline.json"
        write_baseline(path, found.findings)
        baseline = load_baseline(path)

        extra = tmp_path / "extra" / "src" / "repro" / "core" / "fresh.py"
        extra.parent.mkdir(parents=True)
        extra.write_text("import time\n")
        result = lint_paths(
            [FIXTURES, extra], root=REPO_ROOT, baseline=baseline
        )
        # fixture findings have root-relative paths now, so none match the
        # fixture-relative baseline -- but the fresh file is new regardless
        fresh = [f for f in result.findings if f.path.endswith("fresh.py")]
        assert [f.rule for f in fresh] == ["CLK001"]

    def test_allowance_is_counted(self, tmp_path):
        found = lint_fixtures()
        one = [f for f in found.findings if f.rule == "MET002"]
        path = tmp_path / "baseline.json"
        write_baseline(path, one)
        result = lint_fixtures(baseline=load_baseline(path))
        assert result.baselined == 1
        assert "MET002" not in {f.rule for f in result.findings}

    def test_bad_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"version\": 99}")
        with pytest.raises(ReproError):
            load_baseline(path)
        with pytest.raises(ReproError):
            load_baseline(tmp_path / "missing.json")

    def test_committed_baseline_is_empty(self):
        assert load_baseline(REPO_ROOT / ".repro-lint-baseline.json") == Counter()


class TestRuleDetails:
    def test_det001_legacy_numpy_global(self, tmp_path):
        src = "import numpy as np\n\nx = np.random.rand(4)\n"
        result = lint_snippet(tmp_path, src, package="repro/scalefree")
        assert [f.rule for f in result.findings] == ["DET001"]

    def test_det001_seeded_generator_ok(self, tmp_path):
        src = "import numpy as np\n\nrng = np.random.default_rng(7)\n"
        result = lint_snippet(tmp_path, src, package="repro/scalefree")
        assert not result.findings

    def test_det001_exempt_in_obs(self, tmp_path):
        src = "import time\n\nt = time.perf_counter()\n"
        result = lint_snippet(tmp_path, src, package="repro/obs")
        assert not result.findings

    def test_det002_set_literal_and_keys(self, tmp_path):
        src = (
            "def f(d):\n"
            "    out = [k for k in d.keys()]\n"
            "    for x in {1, 2, 3}:\n"
            "        out.append(x)\n"
            "    return out\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/hetero")
        assert [f.rule for f in result.findings] == ["DET002", "DET002"]

    def test_det002_sorted_is_fine(self, tmp_path):
        src = "def f(s):\n    return [x for x in sorted(set(s))]\n"
        result = lint_snippet(tmp_path, src, package="repro/hetero")
        assert not result.findings

    def test_clk001_only_in_sim_packages(self, tmp_path):
        src = "from time import perf_counter\n"
        in_sim = lint_snippet(tmp_path, src, package="repro/costmodel")
        assert [f.rule for f in in_sim.findings] == ["CLK001"]
        outside = lint_snippet(tmp_path, src, package="repro/analysis", name="other.py")
        assert [f.rule for f in outside.findings] == ["DET001"]

    def test_clk001_sim_value_into_wall_field(self, tmp_path):
        src = (
            "def copy_clock(span, other):\n"
            "    other.wall_start = span.sim_start\n"
            "    other.wall_end = span.sim_end\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/analysis")
        assert [f.rule for f in result.findings] == ["CLK001", "CLK001"]

    def test_clk001_sim_value_as_wall_kwarg(self, tmp_path):
        src = (
            "def record(Span, span):\n"
            "    return Span(name='x', wall_start=span.sim_duration_s)\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/analysis")
        assert [f.rule for f in result.findings] == ["CLK001"]

    def test_met001_kind_mismatch(self, tmp_path):
        src = (
            "from repro.obs.metrics import METRICS\n\n"
            "def f():\n"
            "    if METRICS.enabled:\n"
            "        METRICS.inc('trace.makespan_s')\n"  # declared as a gauge
        )
        result = lint_snippet(tmp_path, src, package="repro/analysis")
        assert [f.rule for f in result.findings] == ["MET001"]
        assert "different kind" in result.findings[0].message

    def test_met001_fstring_family_matches_catalog(self, tmp_path):
        src = (
            "from repro.obs.metrics import METRICS\n\n"
            "def f(tag, n):\n"
            "    if METRICS.enabled:\n"
            "        METRICS.inc(f'quadrant.{tag}.tuples', n)\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/analysis")
        assert not result.findings

    def test_met002_early_return_guard_recognised(self, tmp_path):
        src = (
            "from repro.obs.metrics import METRICS\n\n"
            "def f(n):\n"
            "    if not METRICS.enabled:\n"
            "        return\n"
            "    METRICS.inc('phase1.rows_classified', n)\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/analysis")
        assert not result.findings

    def test_met002_timer_context_manager_is_self_gating(self, tmp_path):
        src = (
            "from repro.obs.metrics import METRICS\n\n"
            "def f():\n"
            "    with METRICS.timer('profile.run_wall_s'):\n"
            "        pass\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/analysis")
        assert not result.findings

    def test_unit001_only_in_hot_packages(self, tmp_path):
        src = (
            "from repro.util.units import seconds_to_ms\n\n"
            "def f(t):\n"
            "    return seconds_to_ms(t)\n"
        )
        hot = lint_snippet(tmp_path, src, package="repro/kernels")
        assert [f.rule for f in hot.findings] == ["UNIT001"]
        boundary = lint_snippet(tmp_path, src, package="repro/analysis", name="rpt.py")
        assert not boundary.findings

    def test_evt001_json_dump_in_instrumented_code(self, tmp_path):
        src = (
            "import json\n\n"
            "def save(record, fh):\n"
            "    json.dump(record, fh)\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/jobs")
        assert [f.rule for f in result.findings] == ["EVT001"]

    def test_evt001_snapshot_module_is_sanctioned(self, tmp_path):
        src = (
            "import json\n\n"
            "def encode(meta, fh):\n"
            "    fh.write(json.dumps(meta) + '\\n')\n"
        )
        inside = lint_snippet(tmp_path, src, package="repro/jobs",
                              name="snapshot.py")
        assert not inside.findings
        outside = lint_snippet(tmp_path, src, package="repro/analysis",
                               name="rpt2.py")
        assert not outside.findings

    def test_evt001_plain_dumps_is_fine(self, tmp_path):
        src = (
            "import json\n\n"
            "def fingerprint(config):\n"
            "    return json.dumps(config, sort_keys=True)\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/jobs")
        assert not result.findings

    def test_res001_generator_construction(self, tmp_path):
        src = "import numpy as np\n\nrng = np.random.default_rng(7)\n"
        inside = lint_snippet(tmp_path, src, package="repro/resilience")
        assert [f.rule for f in inside.findings] == ["RES001"]
        outside = lint_snippet(tmp_path, src, package="repro/scalefree",
                               name="gen.py")
        assert not outside.findings

    def test_res001_taxonomy_raise_is_fine(self, tmp_path):
        src = (
            "from repro.util.errors import CorruptResultError\n\n"
            "def audit(bad):\n"
            "    if bad:\n"
            "        raise CorruptResultError('bad', check='structure')\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/resilience")
        assert not result.findings

    def test_res001_reraise_is_fine(self, tmp_path):
        src = (
            "def passthrough(exc):\n"
            "    try:\n"
            "        raise exc\n"
            "    except Exception:\n"
            "        raise\n"
        )
        result = lint_snippet(tmp_path, src, package="repro/resilience")
        assert not result.findings

    @pytest.mark.parametrize("source", [
        "from repro.kernels.esc import esc_multiply\n",
        "from repro.kernels import esc\n",
        "from ..kernels.spa import spa_multiply\n",
        "import repro.kernels.hash_acc as hash_acc\n",
    ])
    def test_bkd001_raw_kernel_import_shapes(self, tmp_path, source):
        for package in ("repro/core", "repro/hetero"):
            result = lint_snippet(tmp_path, source, package=package, name="probe.py")
            assert [f.rule for f in result.findings] == ["BKD001"], package

    def test_bkd001_dispatchers_and_other_packages_are_fine(self, tmp_path):
        dispatch = "from repro.kernels import esc_multiply, spa_multiply\n"
        assert not lint_snippet(tmp_path, dispatch, name="probe.py").findings
        raw = "from repro.kernels import esc\n"
        outside = lint_snippet(tmp_path, raw, package="repro/backends", name="probe.py")
        assert not outside.findings

    def test_ckp001_tofile_on_any_receiver(self, tmp_path):
        src = (
            "def save(arr, state, path):\n"
            "    arr.tofile(path)\n"
            "    state.arrays['a'].tofile(path)\n"
        )
        inside = lint_snippet(tmp_path, src, package="repro/jobs", name="probe.py")
        assert [f.rule for f in inside.findings] == ["CKP001", "CKP001"]
        assert "`arr.tofile`" in inside.findings[0].message
        snapshot = lint_snippet(tmp_path, src, package="repro/jobs", name="snapshot.py")
        assert not snapshot.findings

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        result = lint_snippet(tmp_path, "def broken(:\n", package="repro/analysis")
        assert [f.rule for f in result.findings] == ["SYNTAX"]
        assert not result.ok


class TestExplain:
    def test_every_rule_is_fully_documented(self):
        import inspect

        for rule in all_rules():
            doc = inspect.getdoc(type(rule)) or ""
            assert rule.description, rule.id
            assert len(doc.splitlines()) > 1, f"{rule.id} needs a rationale"
            assert rule.example_violation, f"{rule.id} needs example_violation"
            assert rule.example_fix, f"{rule.id} needs example_fix"

    @pytest.mark.parametrize("rule_id", sorted(ALL_RULE_IDS))
    def test_cli_explain_renders_every_card(self, rule_id, capsys):
        assert main(["check", "--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert rule_id in out
        for section in ("Why it matters:", "Violates:", "Sanctioned pattern:"):
            assert section in out
        assert f"# repro: noqa[{rule_id}]" in out

    def test_cli_explain_is_case_insensitive(self, capsys):
        assert main(["check", "--explain", "det003"]) == 0
        assert "DET003" in capsys.readouterr().out

    def test_cli_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["check", "--explain", "NOPE99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_deep_rules_are_tagged_in_listing(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            rule_id = line.split()[0] if line.split() else ""
            if rule_id in DEEP_RULE_IDS:
                assert "deep" in line


class TestCheckCli:
    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["check", "no/such/dir"]) == 2

    def test_write_baseline_then_clean(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        path = tmp_path / "bl.json"
        assert main(["check", str(FIXTURES), "--write-baseline", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(FIXTURES), "--baseline", str(path),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["baselined"] == 13 and doc["findings"] == []
