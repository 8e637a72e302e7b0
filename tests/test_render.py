"""SVG rendering and the parameter sweep."""
import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import subsums as S
from subsums.render import (
    MARKED_CELL,
    VERDICT_FILL,
    SweepGrid,
    _classify_cell,
    _px,
    sweep_csv_text,
    sweep_svg_text,
)


def test_bar_chart_deterministic():
    union = S.build_cn(S.PRESETS["thirds"], 4).fattened
    first = S.bar_chart(union)
    second = S.bar_chart(union)
    assert first == second
    assert first.startswith("<svg")
    assert first.rstrip().endswith("</svg>")


def test_bar_chart_is_pure_text():
    union = S.build_cn(S.PRESETS["gn"], 6).fattened
    svg = S.bar_chart(union)
    # quantized coordinates only: no repr drift, no exponents
    assert "e-" not in svg
    assert "Fraction" not in svg


def test_bar_chart_min_width_visible():
    union = S.build_cn(S.PRESETS["thirds"], 14).fattened
    svg = S.bar_chart(union)
    # every bar is at least half a pixel wide even at depth 14
    widths = [
        F(part.split('width="')[1].split('"')[0])
        for part in svg.split("<rect")[2:]
    ]
    assert widths
    assert min(widths) >= F(1, 2)


def test_bar_chart_degenerate_span():
    union = S.IntervalUnion([S.ClosedInterval(F(1, 3), F(1, 3))])
    svg = S.bar_chart(union)
    assert "<rect" in svg


def test_bar_chart_empty_union():
    with pytest.raises(S.EmptyUnion):
        S.bar_chart(S.IntervalUnion(()))


def test_bar_chart_writes_file(tmp_path):
    out = tmp_path / "chart.svg"
    union = S.build_cn(S.PRESETS["halves"], 3).fattened
    text = S.bar_chart(union, out_path=str(out))
    assert out.read_text() == text


def test_sweep_small_grid_shape():
    grid = S.sweep(resolution=3)
    assert grid.alpha_steps == 3
    assert len(grid.cells) == 3 * 3 + 1
    lattice = [F(i, 4) for i in (1, 2, 3)]
    seen = [(c.alpha, c.beta) for c in grid.cells[:-1]]
    assert seen == [(a, b) for a in lattice for b in lattice]
    assert (grid.cells[-1].alpha, grid.cells[-1].beta) == MARKED_CELL


def test_sweep_cell_lookup_and_contents():
    grid = S.sweep(resolution=3)
    cell = grid.cell(F(1, 4), F(1, 4))
    assert cell.contraction == F(9, 16)
    assert cell.verdict.kind is S.VerdictKind.FINITE_UNION
    assert cell.feasible

    marked = grid.cell(*MARKED_CELL)
    assert marked.verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
    assert marked.verdict.strength == "Proven"

    hot = grid.cell(F(3, 4), F(3, 4))
    assert hot.verdict.kind is S.VerdictKind.CANTOR_SET
    assert hot.verdict.certificate == "AllExceed"


def test_sweep_infeasible_cells_still_classified():
    grid = S.sweep(resolution=3)
    infeasible = [c for c in grid.cells if not c.feasible]
    assert infeasible
    for cell in infeasible:
        assert cell.verdict.kind is not None
    # alpha, beta <= 1/2 in either order gives the full interval
    cell = grid.cell(F(1, 4), F(1, 2))
    assert not cell.feasible
    assert cell.verdict.kind is S.VerdictKind.FINITE_UNION


def test_sweep_csv_layout():
    grid = S.sweep(resolution=2)
    text = sweep_csv_text(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,beta,lambda,verdict,certificate,feasible"
    assert len(lines) == 2 * 2 + 2
    first = lines[1].split(",")
    assert first[0] == "1/3"
    assert first[1] == "1/3"
    assert first[2] == "4/9"
    assert lines[-1].startswith("9/20,6/11,1/4,SymmetricCantorval,")
    for line in lines[1:]:
        assert line.split(",")[5] in ("true", "false")


def test_sweep_svg_structure():
    grid = S.sweep(resolution=2)
    svg = sweep_svg_text(grid)
    assert svg.startswith("<svg")
    assert 'width="1000"' in svg
    assert 'height="1000"' in svg
    assert "<circle" in svg
    assert "hatch" in svg
    assert svg.count("<rect") >= 4


def _fraction_cell_elements(grid):
    """The map's cell rects, hatch rects and marked circle, placed with
    Fraction arithmetic and quantised by _fraction_px: the formula that the
    integer placement replaced."""
    size = 1000
    cell_px = F(size, grid.alpha_steps + 1)
    side = _fraction_px(cell_px)
    rects, circle = [], []
    for index, cell in enumerate(grid.cells):
        x_center, y_center = cell.alpha * size, size - cell.beta * size
        fill = VERDICT_FILL[cell.verdict.kind]
        if index == len(grid.cells) - 1:
            circle.append(
                f'<circle cx="{_fraction_px(x_center)}" cy="{_fraction_px(y_center)}" r="9" '
                f'fill="{fill}" stroke="#1a1a1a" stroke-width="2.5"/>'
            )
            continue
        x, y = _fraction_px(x_center - cell_px / 2), _fraction_px(y_center - cell_px / 2)
        rects.append(
            f'<rect x="{x}" y="{y}" width="{side}" height="{side}" fill="{fill}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        if not cell.feasible:
            rects.append(f'<rect x="{x}" y="{y}" width="{side}" height="{side}" fill="url(#hatch)"/>')
    return rects + circle


@pytest.mark.parametrize("resolution", range(2, 10))
def test_sweep_svg_places_cells_as_the_fraction_formula(resolution):
    grid = S.sweep(resolution)
    lines = sweep_svg_text(grid).split("\n")
    # Seven header lines come first; "</svg>" and a final newline end it.
    body = lines[7:-2]
    assert lines[-2:] == ["</svg>", ""]
    assert body == _fraction_cell_elements(grid)
    hatched = sum(not cell.feasible for cell in grid.cells[:-1])
    assert len(body) == resolution**2 + hatched + 1 and body[-1].startswith("<circle")


def test_sweep_svg_draws_the_lattice_cell_under_the_marked_one():
    # At resolution 219 the lattice holds (9/20, 6/11) = (99/220, 120/220):
    # that cell gets its square, and the marked cell, last, its circle.
    cells = (_classify_cell(F(1, 220), F(1, 220)), _classify_cell(*MARKED_CELL))
    grid = SweepGrid(219, 219, cells + (_classify_cell(*MARKED_CELL),))
    body = sweep_svg_text(grid).split("\n")[7:-2]
    assert body == _fraction_cell_elements(grid)
    assert sum('stroke="#dddddd"' in line for line in body) == 2
    assert body[-1].startswith("<circle") and sum("<circle" in line for line in body) == 1


def test_sweep_outputs_deterministic(tmp_path):
    csv_a = tmp_path / "a.csv"
    svg_a = tmp_path / "a.svg"
    S.sweep(resolution=2, out_csv=str(csv_a), out_svg=str(svg_a))
    csv_b = tmp_path / "b.csv"
    svg_b = tmp_path / "b.svg"
    S.sweep(resolution=2, out_csv=str(csv_b), out_svg=str(svg_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_sweep_rejects_bad_resolution():
    with pytest.raises(ValueError):
        S.sweep(resolution=0)


def test_sweep_full_grid_bytes_pinned():
    grid = S.sweep(21)
    text = sweep_csv_text(grid) + sweep_svg_text(grid)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == "72d30567b91f6486"


def _fraction_px(value):
    """The quantiser on Fractions that the integer one replaced."""
    q = round(F(value) * 100)
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 100}.{q % 100:02d}"


@given(st.integers(-10**7, 10**7), st.integers(1, 10**5))
def test_px_matches_fraction_rounding(numerator, denominator):
    assert _px(numerator, denominator) == _fraction_px(F(numerator, denominator))


@given(st.integers(-10**5, 10**5), st.integers(1, 60))
def test_px_rounds_centi_pixel_ties_half_to_even(half_steps, scale):
    # (2k + 1)/200 pixels is exactly k + 1/2 centi-pixels.
    numerator, denominator = (2 * half_steps + 1) * scale, 200 * scale
    assert _px(numerator, denominator) == _fraction_px(F(numerator, denominator))
    q = half_steps + (half_steps % 2)
    assert _px(numerator, denominator) == _fraction_px(F(q, 100))


def test_px_examples():
    assert [_px(n, 200) for n in (1, 3, 5, -1, -3, -5)] == [
        "0.00", "0.02", "0.02", "0.00", "-0.02", "-0.02",
    ]
    assert _px(200, 3) == "66.67" and _px(-200, 3) == "-66.67"
    assert _px(1000) == "1000.00"


def test_sweep_builds_no_tail_from_strands(monkeypatch):
    # Each cell's tail is built from its ratios on integers, and the
    # reordering takes its strands with nothing re-checked, so no cell
    # builds a tail through from_strands.
    built = []
    from_strands = S.MultiGeometricTail.from_strands.__func__

    def counted(cls, heads, q):
        built.append(heads)
        return from_strands(cls, heads, q)

    monkeypatch.setattr(S.MultiGeometricTail, "from_strands", classmethod(counted))
    grid = S.sweep(21)
    assert len(grid.cells) == 442 and built == []
