"""Tests for the repro-lint static checker (`repro.staticcheck`).

The fixture corpus under ``tests/fixtures/lint/`` holds one known-bad and
one known-good file per rule family; these tests pin (a) that every
registered rule is proven by at least one bad fixture, (b) that the good
fixtures stay clean, (c) the suppression grammar and its meta findings,
(d) the JSON report shape, and (e) the CLI exit-code contract.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.staticcheck import (
    META_CODES,
    LintReport,
    all_rules,
    lint_paths,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"
ORACLES = Path(__file__).parent / "oracles"

RULE_CODES = sorted(rule.code for rule in all_rules())


def codes_in(path: Path, active_only: bool = True) -> list:
    report = lint_paths([path])
    return sorted(
        finding.code
        for finding in report.findings
        if not (active_only and finding.suppressed)
    )


class TestRuleRegistry:
    def test_seven_rules_across_three_families(self):
        assert len(RULE_CODES) == 7
        families = {code[:4] for code in RULE_CODES}
        assert families == {"RPL1", "RPL3", "RPL4"}

    def test_every_rule_has_code_name_invariant(self):
        for rule in all_rules():
            assert rule.code.startswith("RPL") and len(rule.code) == 6
            assert rule.name
            assert rule.invariant

    def test_every_rule_proven_by_a_bad_fixture(self):
        """Acceptance criterion: each rule fires on the known-bad corpus."""
        report = lint_paths([FIXTURES])
        fired = {finding.code for finding in report.findings}
        for code in RULE_CODES:
            assert code in fired, f"{code} has no triggering bad fixture"

    def test_every_meta_code_proven_by_a_fixture(self):
        report = lint_paths([FIXTURES])
        fired = {finding.code for finding in report.findings}
        for code in META_CODES:
            assert code in fired, f"{code} has no triggering fixture"


class TestDrawOrderRules:
    def test_pf_set_order_bug_is_flagged(self):
        """The seeded PR-2 reconstruction must always trip RPL101."""
        codes = codes_in(FIXTURES / "search" / "bad_pf_set_order.py")
        assert codes == ["RPL101", "RPL101"]

    def test_pf_insertion_order_fix_is_clean(self):
        assert codes_in(FIXTURES / "search" / "good_pf_insertion_order.py") == []

    def test_dict_iteration_flagged(self):
        codes = codes_in(FIXTURES / "generators" / "bad_dict_iteration.py")
        assert codes == ["RPL102", "RPL102"]

    def test_ambient_randomness_flagged(self):
        codes = codes_in(FIXTURES / "generators" / "bad_ambient_random.py")
        assert codes == ["RPL103", "RPL103", "RPL103"]

    def test_explicit_rng_is_clean(self):
        assert codes_in(FIXTURES / "generators" / "good_explicit_rng.py") == []

    def test_draw_order_rules_are_scoped_by_path(self, tmp_path):
        """The same set-iterating source is clean outside the RNG scope."""
        source = (FIXTURES / "search" / "bad_pf_set_order.py").read_text()
        unscoped = tmp_path / "helper.py"
        unscoped.write_text(source)
        assert codes_in(unscoped) == []
        scoped_dir = tmp_path / "search"
        scoped_dir.mkdir()
        scoped = scoped_dir / "helper.py"
        scoped.write_text(source)
        assert codes_in(scoped) == ["RPL101", "RPL101"]


class TestPoolBoundaryRules:
    def test_unpicklable_members_and_lambda_tasks_flagged(self):
        codes = codes_in(FIXTURES / "engine" / "bad_boundary.py")
        assert codes.count("RPL301") == 5
        assert codes.count("RPL302") == 2

    def test_clean_boundary_passes(self):
        """Non-dataclass engine classes may hold locks — only carriers count."""
        assert codes_in(FIXTURES / "engine" / "good_boundary.py") == []


class TestAmbientDisciplineRules:
    def test_bare_span_and_stack_internals_flagged(self):
        codes = codes_in(FIXTURES / "telemetry_bad_ambient.py")
        assert codes == ["RPL401", "RPL401", "RPL402", "RPL402"]

    def test_context_managed_spans_pass(self):
        assert codes_in(FIXTURES / "telemetry_good_ambient.py") == []


class TestSuppressions:
    def test_justified_suppression_silences_the_finding(self):
        report = lint_paths([FIXTURES / "search" / "suppress_valid.py"])
        assert report.active == []
        (finding,) = report.suppressed
        assert finding.code == "RPL101"
        assert "draw-free" in finding.justification
        assert report.exit_code == 0

    def test_missing_justification_is_rejected(self):
        codes = codes_in(FIXTURES / "search" / "suppress_missing_reason.py")
        assert codes == ["RPL002", "RPL101"]

    def test_unknown_code_is_rejected(self):
        codes = codes_in(FIXTURES / "search" / "suppress_unknown_code.py")
        assert codes == ["RPL003", "RPL101"]

    def test_unused_suppression_is_flagged(self):
        codes = codes_in(FIXTURES / "search" / "suppress_unused.py")
        assert codes == ["RPL004"]

    def test_malformed_directives_are_flagged_and_suppress_nothing(self):
        codes = codes_in(FIXTURES / "search" / "suppress_malformed.py")
        assert codes == ["RPL001", "RPL001", "RPL101"]

    def test_meta_codes_cannot_be_suppressed(self, tmp_path):
        scoped_dir = tmp_path / "search"
        scoped_dir.mkdir()
        path = scoped_dir / "meta.py"
        path.write_text(
            "for n in graph.neighbor_set(0):"
            "  # repro-lint: disable=RPL004(nope)\n"
            "    pass\n"
        )
        assert "RPL001" in codes_in(path)

    def test_directives_in_docstrings_are_ignored(self, tmp_path):
        path = tmp_path / "docs.py"
        path.write_text('"""Example: # repro-lint: disable=RPL101(x)"""\n')
        assert codes_in(path) == []

    def test_justification_may_contain_commas_and_parens(self, tmp_path):
        scoped_dir = tmp_path / "search"
        scoped_dir.mkdir()
        path = scoped_dir / "commas.py"
        path.write_text(
            "for n in graph.neighbor_set(0):"
            "  # repro-lint: disable=RPL101(order-free (proved), see PR 7)\n"
            "    pass\n"
        )
        report = lint_paths([path])
        assert report.active == []
        (finding,) = report.suppressed
        assert finding.justification == "order-free (proved), see PR 7"


class TestSelectIgnore:
    def test_select_narrows_to_a_family(self):
        report = lint_paths([FIXTURES], select=["RPL3"])
        codes = {finding.code for finding in report.findings}
        assert codes == {"RPL301", "RPL302"}

    def test_ignore_drops_a_single_code(self):
        report = lint_paths([FIXTURES], ignore=["RPL101"])
        codes = {finding.code for finding in report.findings}
        assert "RPL101" not in codes
        assert "RPL102" in codes


class TestReports:
    def test_json_report_shape(self):
        report = lint_paths([FIXTURES / "search" / "suppress_valid.py"])
        payload = render_json(report)
        assert payload == json.loads(json.dumps(payload))  # JSON-serialisable
        assert payload["schema"] == 1
        assert payload["files_checked"] == 1
        assert payload["errors"] == []
        assert payload["exit_code"] == 0
        assert payload["findings"] == []
        (suppressed,) = payload["suppressed"]
        assert suppressed["code"] == "RPL101"
        assert suppressed["justification"]
        assert suppressed["line"] == 6

    def test_json_findings_carry_locations(self):
        report = lint_paths([FIXTURES / "search" / "bad_pf_set_order.py"])
        payload = render_json(report)
        assert [f["line"] for f in payload["findings"]] == [17, 26]
        for finding in payload["findings"]:
            assert finding["code"] == "RPL101"
            assert finding["path"].endswith("bad_pf_set_order.py")
            assert finding["message"]

    def test_text_report_format(self, capsys):
        report = lint_paths([FIXTURES / "search" / "bad_pf_set_order.py"])
        import io

        stream = io.StringIO()
        render_text(report, stream)
        text = stream.getvalue()
        assert "bad_pf_set_order.py:17:" in text
        assert "RPL101" in text
        assert "2 findings" in text

    def test_findings_sorted_by_position(self):
        report = lint_paths([FIXTURES / "engine" / "bad_boundary.py"])
        positions = [(f.line, f.col, f.code) for f in report.findings]
        assert positions == sorted(positions)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.exit_code == 0

    def test_findings_exit_one(self):
        assert lint_paths([FIXTURES]).exit_code == 1

    def test_bad_path_exits_two(self, tmp_path):
        report = lint_paths([tmp_path / "does-not-exist"])
        assert report.exit_code == 2
        assert report.errors

    def test_syntax_error_exits_two(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        report = lint_paths([tmp_path])
        assert report.exit_code == 2
        assert "broken.py" in report.errors[0]


class TestCli:
    def test_lint_clean_file_returns_zero(self, capsys):
        good = FIXTURES / "search" / "good_pf_insertion_order.py"
        assert main(["lint", str(good)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_bad_file_returns_one(self, capsys):
        bad = FIXTURES / "search" / "bad_pf_set_order.py"
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPL101" in out

    def test_lint_missing_path_returns_two(self, capsys):
        assert main(["lint", "no/such/path"]) == 2

    def test_lint_json_output(self, capsys):
        bad = FIXTURES / "generators" / "bad_ambient_random.py"
        assert main(["lint", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in payload["findings"]} == {"RPL103"}

    def test_lint_select_filters_family(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", "RPL4", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in payload["findings"]} == {"RPL401", "RPL402"}

    def test_lint_ignore_can_silence_everything(self, capsys):
        bad = FIXTURES / "telemetry_bad_ambient.py"
        code = main(["lint", str(bad), "--ignore", "RPL401", "--ignore", "RPL402"])
        assert code == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CODES:
            assert code in out

    def test_show_suppressed_includes_justifications(self, capsys):
        path = FIXTURES / "search" / "suppress_valid.py"
        assert main(["lint", str(path), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out
        assert "draw-free" in out


class TestLiveTree:
    def test_src_lints_clean(self):
        """The shipped tree and the test oracles must pass their own linter
        — the CI gate."""
        report = lint_paths([SRC, ORACLES])
        assert report.errors == []
        assert [f.location() for f in report.active] == []
        assert report.exit_code == 0

    def test_oracles_are_in_draw_order_scope(self):
        """The oracles are the draw-order reference: RPL1xx checks them, so
        the GRN oracle's dict sweep needs its justified suppression."""
        report = lint_paths([ORACLES])
        assert any(
            f.code == "RPL102" and f.path.endswith("grn.py") for f in report.suppressed
        )

    def test_src_suppressions_all_carry_justifications(self):
        """Acceptance criterion: every in-tree suppression is justified."""
        report = lint_paths([SRC, ORACLES])
        assert report.suppressed, "expected the documented in-tree suppressions"
        for finding in report.suppressed:
            assert finding.justification and len(finding.justification) > 10, (
                f"{finding.location()} suppression lacks a real justification"
            )


def test_report_is_a_plain_dataclass():
    report = LintReport(findings=[], files_checked=0, errors=[])
    assert report.exit_code == 0
    assert report.active == []
    assert report.suppressed == []
