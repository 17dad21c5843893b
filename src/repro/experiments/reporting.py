"""Plain-text and Markdown table rendering for experiment results.

All experiment drivers return lists of dictionaries (one per row); these
helpers render them consistently for benchmark stdout and for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def _format_value(value) -> str:
    """Human-friendly scalar formatting (3 significant decimals for floats)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _columns(rows: Sequence[Mapping[str, object]],
             columns: Sequence[str] | None) -> List[str]:
    if columns is not None:
        return list(columns)
    seen: List[str] = []
    for row in rows:
        for key in row:
            if key not in seen:
                seen.append(key)
    return seen


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = _columns(rows, columns)
    rendered: List[List[str]] = [[_format_value(row.get(c, "")) for c in cols]
                                 for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(cols))))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def format_markdown_table(rows: Sequence[Mapping[str, object]],
                          columns: Sequence[str] | None = None) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "(no rows)"
    cols = _columns(rows, columns)
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for row in rows:
        # a literal pipe (``|X|`` in a formula) would end the cell
        cells = (_format_value(row.get(c, "")).replace("|", "\\|") for c in cols)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)

