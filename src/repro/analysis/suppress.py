"""Comment-based suppression parsing for repolint.

Every repolint rule honours the same inline directives::

    flagged_call()  # repolint: disable=RPR001
    # repolint: disable-file=RPR002

Historically these were regex-matched against *raw source lines*, so a
directive inside a string literal (or a docstring example) silently
suppressed real findings on that line.  This module extracts directives
with :mod:`tokenize` instead — only genuine ``COMMENT`` tokens count —
and adds two behaviours the raw-line scan could not offer:

* **Statement-extent expansion.**  A directive anywhere on a multi-line
  statement applies to the whole statement (so a trailing comment on the
  closing paren of a wrapped call suppresses the finding anchored at the
  call's first line).  For compound statements (``def``, ``if``, ``with``
  ...) only the *header* — decorators through the line before the first
  body statement — is expanded, never the body, so a directive on a
  ``def`` line cannot blanket-suppress the function.
* **Unknown-code errors.**  A directive naming a code outside
  :data:`KNOWN_CODES` is an error record, not a silent no-op; repolint
  surfaces it as an ``RPR000`` finding.  Retired rule codes are unknown
  too, so a stale suppression cannot outlive its rule.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize

__all__ = [
    "KNOWN_CODES",
    "Suppressions",
    "extract_suppressions",
]

#: repolint's live rule codes, plus RPR000, its analysis-error channel.
KNOWN_CODES: frozenset[str] = frozenset(
    f"RPR{i:03d}" for i in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14)
)

_DIRECTIVE = re.compile(r"#\s*repolint:\s*(disable-file|disable)\s*=\s*([^#]*)")


@dataclasses.dataclass(frozen=True)
class Suppressions:
    """Parsed suppression directives for one source file.

    ``line_codes`` maps a physical line to the codes suppressed there —
    already expanded over statement extents, so a finding is silenced by
    checking only its own anchor line.  ``errors`` records unknown or
    malformed codes as ``(line, token)`` pairs.
    """

    line_codes: dict[int, frozenset[str]]
    file_codes: frozenset[str]
    errors: tuple[tuple[int, str], ...]

    def active(self, line: int) -> frozenset[str]:
        """Codes suppressed at ``line`` (file-wide directives included)."""
        return self.file_codes | self.line_codes.get(line, frozenset())


def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` for every real comment token in ``source``.

    Tokenization errors (the caller's parser will report the syntax
    error) just end the scan: directives before the bad region still
    count.
    """
    comments: list[tuple[int, str]] = []
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        pass
    return comments


def _parse_codes(raw: str) -> tuple[set[str], list[str]]:
    """Split a directive payload into valid codes and invalid tokens."""
    valid: set[str] = set()
    invalid: list[str] = []
    for token in raw.split(","):
        code = token.strip()
        if not code:
            continue
        if code in KNOWN_CODES:
            valid.add(code)
        else:
            invalid.append(code)
    if not valid and not invalid:
        invalid.append("<empty>")
    return valid, invalid


def _statement_extents(tree: ast.AST) -> list[tuple[int, int]]:
    """Header extents ``(start, end)`` of every statement in ``tree``.

    Simple statements span their full ``lineno..end_lineno``.  Compound
    statements span decorators through the line before their first body
    statement, so directives attach to signatures and conditions without
    leaking into bodies.
    """
    extents: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = node.end_lineno if node.end_lineno is not None else node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            first = body[0].lineno
            end = max(start, first - 1) if first > start else start
        for decorator in getattr(node, "decorator_list", []):
            start = min(start, decorator.lineno)
        extents.append((start, end))
    return extents


def _extent_for(line: int, extents: list[tuple[int, int]]) -> tuple[int, int]:
    """The smallest statement extent containing ``line`` (or the line itself)."""
    best: tuple[int, int] | None = None
    for start, end in extents:
        if start <= line <= end:
            if best is None or (end - start, -start) < (best[1] - best[0], -best[0]):
                best = (start, end)
    return best if best is not None else (line, line)


def extract_suppressions(source: str, tree: ast.AST | None = None) -> Suppressions:
    """Parse ``# repolint: disable[-file]=`` directives from real comments.

    When ``tree`` (the parsed module) is given, per-line directives are
    expanded over the extent of the statement they sit on; without it
    they apply to their own physical line only.
    """
    extents = _statement_extents(tree) if tree is not None else []
    line_codes: dict[int, set[str]] = {}
    file_codes: set[str] = set()
    errors: list[tuple[int, str]] = []
    for line, text in _comment_tokens(source):
        for match in _DIRECTIVE.finditer(text):
            kind, payload = match.group(1), match.group(2)
            valid, invalid = _parse_codes(payload)
            errors.extend((line, token) for token in invalid)
            if kind == "disable-file":
                file_codes.update(valid)
            else:
                start, end = _extent_for(line, extents)
                for covered in range(start, end + 1):
                    line_codes.setdefault(covered, set()).update(valid)
    return Suppressions(
        line_codes={line: frozenset(codes) for line, codes in line_codes.items()},
        file_codes=frozenset(file_codes),
        errors=tuple(errors),
    )
