"""Diagnostics and suppression pragmas for the repro lint suite.

A :class:`Diagnostic` is one finding: ``file:line:col: RULE-ID message``
plus a severity and an optional fix hint.  Findings are suppressed by an
explicit, *justified* pragma on the flagged line (or on a comment line
immediately above it)::

    state = time.time()  # repro-lint: ignore[RPL103] wall clock feeds a log tag only

The bracket takes a comma-separated list of rule ids; a bare family prefix
(``RPL1``) suppresses every rule of that family.  The free text after the
bracket is the justification and is **mandatory** — a pragma without a
reason is itself a finding (``RPL001``), so silencing a rule always leaves
a paper trail (see ``docs/static-analysis.md`` for the policy).  So is a
pragma that suppressed nothing: once every rule it names has run over the
file, a pragma none of whose ids matched a diagnostic on the line it
covers is stale, and ``RPL001`` reports it.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Diagnostic",
    "PragmaIndex",
    "Severity",
    "match_code",
    "selected",
]

#: pragma grammar: ``# repro-lint: ignore[RPL101,RPL2] <reason>``, the
#: start of a comment
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*ignore\[(?P<codes>[A-Z0-9,\s]*)\]\s*(?P<reason>.*)$"
)


class Severity:
    """Diagnostic severities, ordered weakest to strongest."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    ORDER = (INFO, WARNING, ERROR)


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, formatted as ``path:line:col: rule-id message``."""

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: str = Severity.ERROR
    hint: Optional[str] = None

    def format(self, show_hint: bool = False) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.severity}] {self.message}")
        if show_hint and self.hint:
            text += f"\n    fix-hint: {self.hint}"
        return text

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


def match_code(code: str, patterns: Iterable[str]) -> bool:
    """True when ``code`` matches any id or family prefix in ``patterns``.

    ``RPL104`` matches the exact id ``RPL104`` and the family ``RPL1`` (a
    strict prefix of the numeric tail), mirroring ``--select``/``--ignore``
    semantics.
    """
    for pattern in patterns:
        pattern = pattern.strip()
        if pattern and code.startswith(pattern):
            return True
    return False


def selected(code: str, select: Sequence[str], ignore: Sequence[str]) -> bool:
    """Apply ``--select`` (empty = everything) then ``--ignore``."""
    if select and not match_code(code, select):
        return False
    return not match_code(code, ignore)


@dataclass
class _Pragma:
    line: int
    codes: Tuple[str, ...]
    reason: str
    standalone: bool  # a comment-only line applies to the next code line
    used: bool = False  # suppressed at least one diagnostic


@dataclass
class PragmaIndex:
    """All ``repro-lint: ignore`` pragmas of one source file, by line."""

    pragmas: Dict[int, _Pragma] = field(default_factory=dict)
    #: line of the next code statement covered by a standalone pragma line
    covered: Dict[int, _Pragma] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str) -> "PragmaIndex":
        index = cls()
        lines = source.splitlines()
        for lineno, col, comment in _comments(source):
            found = _PRAGMA.match(comment)
            if not found:
                continue
            codes = tuple(c.strip() for c in found.group("codes").split(",")
                          if c.strip())
            pragma = _Pragma(
                line=lineno,
                codes=codes,
                reason=found.group("reason").strip(),
                standalone=not lines[lineno - 1][:col].strip(),
            )
            index.pragmas[lineno] = pragma
            if pragma.standalone:
                # A comment-only pragma covers the next non-comment,
                # non-blank line.
                for ahead in range(lineno, len(lines)):
                    follower = lines[ahead].strip()
                    if follower and not follower.startswith("#"):
                        index.covered[ahead + 1] = pragma
                        break
        return index

    def suppresses(self, line: int, code: str) -> bool:
        """Is a diagnostic of ``code`` on ``line`` pragma-suppressed?
        (Marks every pragma that suppresses it as used.)"""
        suppressed = False
        for pragma in (self.pragmas.get(line), self.covered.get(line)):
            if pragma is not None and match_code(code, pragma.codes):
                pragma.used = suppressed = True
        return suppressed

    def policy_findings(self, path: str, select: Sequence[str] = (),
                        ignore: Sequence[str] = ()) -> List[Diagnostic]:
        """Pragmas violating the policy: every suppression needs a reason,
        and must suppress something once every rule it names has run
        (``select``/``ignore`` are the run's filters)."""
        findings = []
        for pragma in self.pragmas.values():
            if not pragma.reason or not pragma.codes:
                findings.append(Diagnostic(
                    path=path, line=pragma.line, col=1, code="RPL001",
                    message="suppression pragma must name at least one rule "
                            "id and give a justification: "
                            "`# repro-lint: ignore[RPLnnn] <reason>`",
                    hint="append the rule id(s) and a short reason "
                         "explaining why the invariant does not apply here",
                ))
            elif not pragma.used and all(_ran(code, select, ignore)
                                         for code in pragma.codes):
                findings.append(Diagnostic(
                    path=path, line=pragma.line, col=1, code="RPL001",
                    message=f"suppression pragma "
                            f"ignore[{','.join(pragma.codes)}] suppresses "
                            f"nothing: no diagnostic of those rules on the "
                            f"line it covers",
                    hint="delete the stale pragma (keep its reasoning as a "
                         "plain comment if it still explains the code)",
                ))
        return findings


def _ran(code: str, select: Sequence[str], ignore: Sequence[str]) -> bool:
    """Did every rule ``code`` names (an id or a family) run, unfiltered
    by ``--select`` and ``--ignore``?"""
    if select and not match_code(code, select):
        return False
    return not any(pattern.strip() and (code.startswith(pattern.strip())
                                        or pattern.strip().startswith(code))
                   for pattern in ignore)


def _comments(source: str) -> List[Tuple[int, int, str]]:
    """``(line, column, text)`` of every comment in ``source`` (which
    parsed, so it tokenizes) — never text inside a string."""
    return [(token.start[0], token.start[1], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT]
