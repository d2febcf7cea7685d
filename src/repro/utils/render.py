"""Plain-text rendering of result tables, per-epoch series and durations.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

__all__ = ["format_table", "format_series", "format_duration"]


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(row):
        return " | ".join(c.ljust(w) for c, w in zip(row, widths))
    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def format_series(name: str, values: list[float],
                  precision: int = 1) -> str:
    """Render one figure series as 'name: v1 v2 v3 ...'."""
    rendered = " ".join(f"{v:.{precision}f}" for v in values)
    return f"{name}: {rendered}"


def format_duration(seconds: float) -> str:
    """Render seconds the way the paper's Table 6 does (e.g. '2m 42s')."""
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m {rem:.0f}s"
