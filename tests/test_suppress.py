"""Suppression parsing edge cases.

Regression suite for the tokenize-based directive extraction in
:mod:`repro.analysis.suppress`: directives in string literals must NOT
suppress (the old raw-line regex scan did), directives on any line of a
multi-line statement must cover the whole statement, compound-statement
directives must cover only the header, ``disable-file`` must work from
anywhere in the file, and unknown rule codes must error (RPR000) instead
of silently doing nothing, retired rule codes included.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis.lint import RULES, lint_source, main
from repro.analysis.suppress import KNOWN_CODES, extract_suppressions

CORE = "src/repro/core/snippet.py"


def lint_codes(source: str, path: str = CORE) -> list[str]:
    return [finding.rule for finding in lint_source(textwrap.dedent(source), path=path)]


# ---------------------------------------------------------------------------
# extract_suppressions primitives
# ---------------------------------------------------------------------------


def test_known_codes_are_the_live_rules() -> None:
    assert KNOWN_CODES == set(RULES) | {"RPR000"}
    assert not KNOWN_CODES & {"RPR010", "RPR011", "RPR013"}  # retired rules


def test_directive_in_string_literal_is_ignored() -> None:
    source = 'text = "# repolint: disable=RPR001"\n'
    suppressions = extract_suppressions(source, ast.parse(source))
    assert suppressions.active(1) == frozenset()
    assert suppressions.errors == ()


def test_multi_line_statement_extent_expansion() -> None:
    source = (
        "value = compute(\n"
        "    1,\n"
        "    2,\n"
        ")  # repolint: disable=RPR003\n"
    )
    suppressions = extract_suppressions(source, ast.parse(source))
    # The directive on the closing paren covers the statement's first line.
    assert "RPR003" in suppressions.active(1)
    assert "RPR003" in suppressions.active(4)
    assert suppressions.active(5) == frozenset()


def test_compound_statement_covers_header_not_body() -> None:
    source = (
        "@decorator\n"
        "def f(\n"
        "    x,\n"
        "):  # repolint: disable=RPR004\n"
        "    body_line()\n"
    )
    suppressions = extract_suppressions(source, ast.parse(source))
    assert "RPR004" in suppressions.active(1)  # decorator line
    assert "RPR004" in suppressions.active(2)  # def line
    assert suppressions.active(5) == frozenset()  # body NOT blanket-covered


def test_without_tree_directives_cover_own_line_only() -> None:
    source = "value = compute(\n    1,\n)  # repolint: disable=RPR003\n"
    suppressions = extract_suppressions(source)
    assert suppressions.active(1) == frozenset()
    assert "RPR003" in suppressions.active(3)


def test_unknown_and_empty_codes_are_errors() -> None:
    source = (
        "x = 1  # repolint: disable=RPR999\n"
        "y = 2  # repolint: disable=\n"
        "z = 3  # repolint: disable=RPR001,RPR998\n"
    )
    suppressions = extract_suppressions(source, ast.parse(source))
    assert (1, "RPR999") in suppressions.errors
    assert (2, "<empty>") in suppressions.errors
    assert (3, "RPR998") in suppressions.errors
    assert "RPR001" in suppressions.active(3)  # the valid code still applies


def test_disable_file_collects_from_anywhere() -> None:
    source = "x = 1\ny = 2\n# repolint: disable-file=RPR001\n"
    suppressions = extract_suppressions(source, ast.parse(source))
    assert "RPR001" in suppressions.active(1)
    assert "RPR001" in suppressions.active(99)


# ---------------------------------------------------------------------------
# repolint integration
# ---------------------------------------------------------------------------


def test_lint_string_literal_directive_does_not_suppress() -> None:
    # The directive lives in a string ON THE SAME LINE as a real finding;
    # the old raw-line regex scan suppressed it.
    source = 'import random\nrandom.seed(1); s = "# repolint: disable=RPR001"\n'
    assert lint_codes(source) == ["RPR001"]


def test_lint_multi_line_statement_suppression() -> None:
    violation = (
        "import numpy as np\n"
        "x = np.zeros(\n"
        "    (4, 4),\n"
        ")\n"
    )
    assert lint_codes(violation) == ["RPR003"]
    suppressed = violation.replace(")\n", ")  # repolint: disable=RPR003\n")
    assert lint_codes(suppressed) == []


def test_lint_decorated_def_header_suppression() -> None:
    source = (
        "def wrap(f):\n"
        "    return f\n"
        "@wrap\n"
        "def f(labels=[]):  # repolint: disable=RPR004\n"
        "    return labels\n"
    )
    assert lint_codes(source) == []


def test_lint_disable_file_after_code_still_applies() -> None:
    source = (
        "import random\n"
        "random.seed(1)\n"
        "# repolint: disable-file=RPR001\n"
    )
    assert lint_codes(source) == []


def test_lint_unknown_code_errors_rpr000() -> None:
    findings = lint_source("x = 1  # repolint: disable=RPR777\n", path=CORE)
    assert [f.rule for f in findings] == ["RPR000"]
    assert "RPR777" in findings[0].message


@pytest.mark.parametrize("code", ["RPR010", "RPR011", "RPR013"])
def test_retired_rule_codes_are_errors(code: str) -> None:
    # A suppression of a retired rule is stale: it must not pass silently.
    findings = lint_source(f"x = 1  # repolint: disable={code}\n", path=CORE)
    assert [f.rule for f in findings] == ["RPR000"]
    assert code in findings[0].message


@pytest.mark.parametrize("code", sorted(KNOWN_CODES))
def test_every_known_code_parses_in_both_tools(code: str, tmp_path, capsys) -> None:
    # Both the library entry point and the command line accept it.
    source = f"x = 1  # repolint: disable={code}\n"
    assert lint_codes(source) == []
    (tmp_path / "snippet.py").write_text(source, encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    capsys.readouterr()
