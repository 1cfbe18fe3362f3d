"""Plain-text rendering of experiment results.

The benchmark harness and examples print the same rows and series the paper's
figures and table report; this module keeps the formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_value(value: object) -> str:
    """Render one table cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) < 0.01 or abs(value) >= 100000):
            return "%.2e" % value
        return "%.3f" % value
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned, pipe-separated text table."""
    rendered_rows: List[List[str]] = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines = [render_line(list(headers)), separator]
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)
