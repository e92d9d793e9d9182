"""ASCII plots for benchmark output and examples.

The benches regenerate the paper's *figures*; these helpers render them
as terminal graphics so ``pytest benchmarks/`` output visually mirrors
the paper: line-ish curves (Figure 2, 5b, 8), scatter quadrants
(Figure 4a) and labelled bar groups (Figure 9).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["bar_chart", "curve", "scatter"]


def bar_chart(
    items: Sequence[Tuple[str, float]],
    *,
    width: int = 50,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart, one labelled bar per (label, value)."""
    if not items:
        raise ValueError("nothing to plot")
    peak = max(value for _, value in items)
    label_width = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        filled = 0 if peak == 0 else int(round(width * value / peak))
        lines.append(
            f"{label.ljust(label_width)} | {'█' * filled}"
            f" {value:g}{unit}"
        )
    return "\n".join(lines)


def curve(
    points: Sequence[Tuple[float, float]],
    *,
    height: int = 10,
    title: str = "",
    y_label: str = "",
) -> str:
    """Column chart of a y-vs-x series (x used only for the axis row)."""
    if not points:
        raise ValueError("nothing to plot")
    ys = [y for _, y in points]
    top = max(ys) or 1.0
    lines = [title] if title else []
    for row in range(height, 0, -1):
        threshold = top * (row - 0.5) / height
        cells = "".join("█ " if y >= threshold else "  " for y in ys)
        prefix = f"{top * row / height:8.2f} " if row in (height, 1) else " " * 9
        lines.append(prefix + "|" + cells)
    axis = "".join(f"{x:<2.0f}" for x, _ in points)
    lines.append(" " * 9 + "+" + "-" * (2 * len(points)))
    lines.append(" " * 10 + axis)
    if y_label:
        lines.append(f"(y: {y_label})")
    return "\n".join(lines)


def scatter(
    points: Sequence[Tuple[float, float]],
    *,
    width: int = 48,
    height: int = 16,
    x_range: Optional[Tuple[float, float]] = None,
    y_range: Optional[Tuple[float, float]] = None,
    title: str = "",
    marker: str = "o",
) -> str:
    """Scatter plot on a character grid (Figure 4a style)."""
    if not points:
        raise ValueError("nothing to plot")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = x_range or (min(xs), max(xs))
    y_lo, y_hi = y_range or (min(ys), max(ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid: List[List[str]] = [
        [" "] * width for _ in range(height)
    ]
    for x, y in points:
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        col = min(max(col, 0), width - 1)
        row = min(max(row, 0), height - 1)
        grid[height - 1 - row][col] = marker
    lines = [title] if title else []
    lines.append(f"{y_hi:8.2f} ┌" + "─" * width)
    for row_cells in grid:
        lines.append(" " * 9 + "│" + "".join(row_cells))
    lines.append(f"{y_lo:8.2f} └" + "─" * width)
    lines.append(" " * 10 + f"{x_lo:<.2f}" + " " * (width - 12) + f"{x_hi:>.2f}")
    return "\n".join(lines)
