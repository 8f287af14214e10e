"""ASCII table/series rendering for the benchmark harness.

Every bench prints the same rows/series the paper reports, through
these helpers, so ``pytest benchmarks/ --benchmark-only`` output reads
like the paper's tables.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["AsciiTable", "format_series", "banner"]


class AsciiTable:
    """A minimal fixed-width table renderer."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def row(self, *cells) -> "AsciiTable":
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])
        return self

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render() + "\n")


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_series(label: str, values: Sequence[float], fmt: str = "{:.1f}") -> str:
    """One labelled series line, e.g. for figure data dumps."""
    return f"{label}: " + " ".join(fmt.format(v) for v in values)


def banner(text: str) -> None:
    line = "=" * max(len(text), 8)
    print(f"\n{line}\n{text}\n{line}")

