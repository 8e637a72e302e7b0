"""Static figures and sweep data: cover bar charts and the two-ratio map.

All output is plain SVG or CSV assembled from exact rationals, quantized
to centi-pixels at the last moment, so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .classify import Verdict, VerdictKind, classify
from .errors import EmptyUnion
from .intervals import IntervalUnion
from .sequences import multi_geometric

# Bar chart size in pixels, and the minimum bar width, so hairline
# components stay visible.
CHART_WIDTH = 1000
CHART_HEIGHT = 200
MIN_BAR_WIDTH = Fraction(1, 2)

MARKED_CELL = (Fraction(9, 20), Fraction(6, 11))
ONE = Fraction(1)

VERDICT_FILL = {
    VerdictKind.FINITE_UNION: "#74add1",
    VerdictKind.CANTOR_SET: "#f46d43",
    VerdictKind.SYMMETRIC_CANTORVAL: "#66bd63",
    VerdictKind.UNDETERMINED: "#ffffff",
    VerdictKind.UNBOUNDED_INTERVAL: "#cccccc",
    VerdictKind.WHOLE_LINE: "#cccccc",
}


def _px(numerator: int, denominator: int = 1) -> str:
    """Quantize the pixel coordinate numerator/denominator (denominator > 0)
    to centi-pixels, rounding half to even, as a decimal string."""
    q, r = divmod(100 * numerator, denominator)
    if 2 * r > denominator or (2 * r == denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 100}.{q % 100:02d}"


def bar_chart(u: IntervalUnion, out_path: Optional[str] = None) -> str:
    """Render an interval union as a bar graph, one filled bar per component.

    The union's hull is mapped onto the full CHART_WIDTH. Returns the
    SVG text and writes it to out_path when given. Coordinates are
    computed on the union's numerators: its denominator cancels.
    """
    if u.is_empty:
        raise EmptyUnion("cannot chart an empty union")
    start = u.lo[0]
    span = u.hi[-1] - start
    # Bars sit between margins of a tenth of the height.
    bar_top = _px(CHART_HEIGHT, 10)
    bar_height = _px(8 * CHART_HEIGHT, 10)
    min_num, min_den = MIN_BAR_WIDTH.numerator, MIN_BAR_WIDTH.denominator
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_WIDTH}" '
        f'height="{CHART_HEIGHT}" viewBox="0 0 {CHART_WIDTH} {CHART_HEIGHT}">',
        f'<rect width="{CHART_WIDTH}" height="{CHART_HEIGHT}" fill="#ffffff"/>',
    ]
    for a, b in zip(u.lo, u.hi):
        if span == 0:
            left, width, scale = 0, CHART_WIDTH, 1
        else:
            left, width, scale = (a - start) * CHART_WIDTH, (b - a) * CHART_WIDTH, span
        if width * min_den < min_num * scale:
            bar_width = _px(min_num, min_den)
        else:
            bar_width = _px(width, scale)
        lines.append(
            f'<rect x="{_px(left, scale)}" y="{bar_top}" width="{bar_width}" '
            f'height="{bar_height}" fill="#1a1a1a"/>'
        )
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


@dataclass(frozen=True)
class SweepCell:
    """One classified point of the two-ratio parameter square."""

    alpha: Fraction
    beta: Fraction
    contraction: Fraction
    verdict: Verdict
    feasible: bool


@dataclass(frozen=True)
class SweepGrid:
    """Uniform lattice of classified cells plus the marked reference cell,
    which comes last (a lattice point may lie on it)."""

    alpha_steps: int
    beta_steps: int
    cells: tuple

    def cell(self, alpha, beta) -> SweepCell:
        for cell in self.cells:
            if cell.alpha == alpha and cell.beta == beta:
                return cell
        raise KeyError(f"no cell at ({alpha}, {beta})")


def _classify_cell(alpha: Fraction, beta: Fraction) -> SweepCell:
    # The tail's period factor is lambda = (1 - alpha)(1 - beta), and a
    # prefix-free spec is non-increasing exactly when its tail is.
    spec = multi_geometric((alpha, beta), ONE)
    tail = spec.tail
    return SweepCell(alpha, beta, tail.period_factor, classify(spec), tail.nonincreasing)


def sweep(
    resolution: int = 21,
    out_csv: Optional[str] = None,
    out_svg: Optional[str] = None,
) -> SweepGrid:
    """Classify a resolution^2 lattice of two-ratio cells, plus the marked one.

    Lattice points are (i/(resolution+1), j/(resolution+1)) for i, j in
    1..resolution, strictly inside the unit square, in alpha-major order.
    The marked cell is appended last. Infeasible cells (no non-increasing
    arrangement in the given ratio order) are still classified via the
    reordering and flagged.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    denom = resolution + 1
    cells = []
    betas = [Fraction(j, denom) for j in range(1, resolution + 1)]
    for i in range(1, resolution + 1):
        alpha = Fraction(i, denom)
        for beta in betas:
            cells.append(_classify_cell(alpha, beta))
    cells.append(_classify_cell(*MARKED_CELL))
    grid = SweepGrid(resolution, resolution, tuple(cells))
    if out_csv is not None:
        _write_csv(grid, out_csv)
    if out_svg is not None:
        _write_svg(grid, out_svg)
    return grid


def sweep_csv_text(grid: SweepGrid) -> str:
    rows = ["alpha,beta,lambda,verdict,certificate,feasible"]
    for cell in grid.cells:
        certificate = cell.verdict.certificate or ""
        rows.append(
            f"{cell.alpha},{cell.beta},{cell.contraction},"
            f"{cell.verdict.kind.value},{certificate},"
            f"{'true' if cell.feasible else 'false'}"
        )
    return "\n".join(rows) + "\n"


def _write_csv(grid: SweepGrid, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sweep_csv_text(grid))


def sweep_svg_text(grid: SweepGrid) -> str:
    """1000x1000 verdict map: alpha rightward, beta upward, hatch = infeasible.

    The cell at (alpha, beta) = (a/b, c/d) is a square of side size/denom
    centred on (size a/b, size - size c/d). Each coordinate goes to _px as
    one fraction of integers, so no Fraction is built per cell.
    """
    size = 1000
    denom = grid.alpha_steps + 1
    side = _px(size, denom)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        "<defs>",
        '<pattern id="hatch" width="8" height="8" patternUnits="userSpaceOnUse">',
        '<path d="M0,8 L8,0" stroke="#999999" stroke-width="1.5"/>',
        "</pattern>",
        "</defs>",
        f'<rect width="{size}" height="{size}" fill="#f7f7f7"/>',
    ]
    for cell in grid.cells[:-1]:
        a, b = cell.alpha.numerator, cell.alpha.denominator
        c, d = cell.beta.numerator, cell.beta.denominator
        # The corner is the centre less half a side, size / (2 denom).
        x = _px(size * (2 * a * denom - b), 2 * b * denom)
        y = _px(size * (2 * (d - c) * denom - d), 2 * d * denom)
        fill = VERDICT_FILL[cell.verdict.kind]
        lines.append(
            f'<rect x="{x}" y="{y}" width="{side}" '
            f'height="{side}" fill="{fill}" stroke="#dddddd" '
            f'stroke-width="0.5"/>'
        )
        if not cell.feasible:
            lines.append(
                f'<rect x="{x}" y="{y}" width="{side}" '
                f'height="{side}" fill="url(#hatch)"/>'
            )
    marked = grid.cells[-1]
    alpha, beta = marked.alpha, marked.beta
    fill = VERDICT_FILL[marked.verdict.kind]
    cx = _px(size * alpha.numerator, alpha.denominator)
    cy = _px(size * (beta.denominator - beta.numerator), beta.denominator)
    lines.append(
        f'<circle cx="{cx}" cy="{cy}" r="9" '
        f'fill="{fill}" stroke="#1a1a1a" stroke-width="2.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _write_svg(grid: SweepGrid, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sweep_svg_text(grid))
