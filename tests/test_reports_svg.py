"""Analysis reports (JSON) and the SVG plotting helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracecomplexity import (AnalysisReport, DataError, MapPoint, RngSeed,
                             complexity_map_svg, complexity_of_slices, load_report,
                             matrix_heatmap_svg, trace_complexity, write_map_csv,
                             zipf_matrix)


@pytest.fixture(scope="module")
def report(uniform_trace):
    from tracecomplexity import CompressorHandle

    comp = CompressorHandle("deflate", 9)
    seed = RngSeed(0)
    pt = trace_complexity(uniform_trace, comp, trials=2, seed=seed)
    src, dst = complexity_of_slices(uniform_trace, comp, trials=2, seed=seed)
    return AnalysisReport.build(uniform_trace, pt, comp, 2, seed,
                                slices={"source": src, "destination": dst},
                                trace_path="mem://uniform")


class TestReports:
    def test_round_trip(self, report):
        back = AnalysisReport.from_json(report.to_json())
        assert back.point == report.point
        assert back.trace_name == report.trace_name
        assert back.slices["source"] == report.slices["source"]
        assert back.compressor == report.compressor
        assert back.seed == report.seed

    def test_json_is_stable_minus_timestamp(self, uniform_trace, report):
        from tracecomplexity import CompressorHandle

        again = AnalysisReport.build(
            uniform_trace,
            trace_complexity(uniform_trace, CompressorHandle("deflate", 9),
                             trials=2, seed=RngSeed(0)),
            CompressorHandle("deflate", 9), 2, RngSeed(0),
            slices=dict(zip(("source", "destination"),
                            complexity_of_slices(uniform_trace,
                                                 CompressorHandle("deflate", 9),
                                                 trials=2, seed=RngSeed(0)))),
            trace_path="mem://uniform")
        strip = lambda r: "\n".join(line for line in r.to_json().splitlines()
                                    if '"created_at"' not in line)
        assert strip(again) == strip(report)

    def test_metadata_recorded(self, report, uniform_trace):
        assert report.entries == len(uniform_trace)
        assert report.n_ids == 16
        assert report.trials == 2
        assert report.compressor.name == "deflate"

    def test_load_report(self, report, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(report.to_json())
        assert load_report(path).point == report.point

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_report(tmp_path / "absent.json")

    def test_malformed_and_wrong_schema(self):
        with pytest.raises(DataError):
            AnalysisReport.from_json("{oops")
        with pytest.raises(DataError):
            AnalysisReport.from_json('{"schema": "other/1"}')


class TestMapSvg:
    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            complexity_map_svg([])

    def test_single_point_structure(self):
        svg = complexity_map_svg([MapPoint("solo", 0.5, 0.6, 0.3)])
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 1
        assert "solo" in svg
        assert "temporal complexity" in svg and "non-temporal complexity" in svg

    def test_circle_area_tracks_overall(self):
        svg = complexity_map_svg([MapPoint("a", 0.5, 0.5, 1.0),
                                  MapPoint("b", 0.8, 0.8, 0.25)])
        radii = sorted(float(part.split('"')[1]) for part in svg.split(" r=")[1:])
        # area proportional to the overall score: r scales with sqrt
        assert radii[1] / radii[0] == pytest.approx(math.sqrt(1.0 / 0.25), rel=1e-6)

    def test_deterministic(self):
        pts = [MapPoint("a", 0.2, 0.9, 0.18)]
        assert complexity_map_svg(pts) == complexity_map_svg(pts)

    def test_name_escaping(self):
        svg = complexity_map_svg([MapPoint("a<b>&c", 0.5, 0.5, 0.5)])
        assert "a&lt;b&gt;&amp;c" in svg
        assert "a<b>" not in svg

    def test_out_of_range_values_clamped_into_frame(self):
        svg = complexity_map_svg([MapPoint("hot", 1.4, 1.4, 1.9)])
        assert svg.count("<circle") == 1


class TestMapCsv:
    def test_exact_values_round_trip(self, tmp_path):
        pts = [MapPoint("x", 1 / 3, 2 / 7, (1 / 3) * (2 / 7))]
        path = tmp_path / "points.csv"
        write_map_csv(pts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,temporal,non_temporal,overall"
        name, t, nt, o = lines[1].split(",")
        # repr round-trip: no precision lost on the way to disk
        assert float(t) == 1 / 3 and float(nt) == 2 / 7 and float(o) == (1 / 3) * (2 / 7)


class TestHeatmap:
    def test_cell_count(self):
        dense = zipf_matrix(4, 1.0).to_dense()
        svg = matrix_heatmap_svg(dense)
        assert svg.count("<rect") >= 16

    def test_log_scale_differs(self):
        dense = zipf_matrix(4, 2.0).to_dense()
        assert matrix_heatmap_svg(dense) != matrix_heatmap_svg(dense, log_scale=True)

    def test_handles_zero_cells(self):
        dense = np.zeros((3, 3))
        dense[0, 0] = 1.0
        svg = matrix_heatmap_svg(dense)
        assert svg.startswith("<svg")


def oracle_heatmap_svg(dense: np.ndarray, log_scale: bool = False, cell: int = 24) -> str:
    """matrix_heatmap_svg as it was before it wrote a row at a time, kept as
    its reference: every cell's shade worked out on its own, and every part
    held until the end."""
    n_rows, n_cols = dense.shape
    pad_l, pad_t = 40, 10
    width = pad_l + n_cols * cell + 10
    height = pad_t + n_rows * cell + 40
    vmax = float(dense.max())
    positive = dense[dense > 0]
    vmin = float(positive.min()) if positive.size else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(n_rows):
        for j in range(n_cols):
            v = float(dense[i, j])
            if v <= 0 or vmax <= 0:
                intensity = 0.0
            elif log_scale and vmax > vmin:
                intensity = (math.log10(v) - math.log10(vmin)) / \
                            (math.log10(vmax) - math.log10(vmin))
            elif log_scale:
                intensity = 1.0
            else:
                intensity = v / vmax
            shade = int(round(255 * (1.0 - 0.92 * min(max(intensity, 0.0), 1.0))))
            color = f"rgb({shade},{shade},255)" if v > 0 else "rgb(255,255,255)"
            x = pad_l + j * cell
            y = pad_t + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{color}" stroke="#eeeeee" stroke-width="0.5"/>')
    parts.append(f'<text x="{pad_l + n_cols * cell / 2:.0f}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif">destination</text>')
    parts.append(f'<text x="14" y="{pad_t + n_rows * cell / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 14 {pad_t + n_rows * cell / 2:.0f})">source</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_outcome(draw, dense, log_scale, cell):
    """The SVG text, or the exception's type and message."""
    try:
        return draw(dense, log_scale, cell)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


CELLS = st.one_of(st.just(0.0), st.floats(1e-300, 1.0),
                  st.sampled_from([5e-324, 1e-310, 1e-5, 0.5, 1.0, -0.25, float("nan")]))


@st.composite
def grids(draw) -> np.ndarray:
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = draw(st.lists(CELLS, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


class TestHeatmapAgainstCellLoop:
    """matrix_heatmap_svg draws what the per-cell loop drew, or fails as it did."""

    @given(grids(), st.booleans(), st.sampled_from([24, 1, 7]))
    def test_same_svg(self, dense, log_scale, cell):
        assert heatmap_outcome(matrix_heatmap_svg, dense, log_scale, cell) == \
            heatmap_outcome(oracle_heatmap_svg, dense, log_scale, cell)

    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    @pytest.mark.parametrize("dense", [
        [[0.25, float("nan")], [0.5, 0.25]],
        [[1.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[0.25, 0.25], [0.25, 0.25]],
        [[0.0, 0.5], [0.0, 0.5]],
        [[-1.0, 0.0], [0.0, -2.0]],
    ], ids=["nan-cell", "n-1", "all-zero", "vmax-equals-vmin", "one-positive-value",
            "negative"])
    def test_edge_grids(self, dense, log_scale):
        dense = np.array(dense)
        assert heatmap_outcome(matrix_heatmap_svg, dense, log_scale, 24) == \
            heatmap_outcome(oracle_heatmap_svg, dense, log_scale, 24)

    def test_nan_cell_is_white_on_a_log_scale(self):
        svg = matrix_heatmap_svg(np.array([[0.25, float("nan")]]), log_scale=True)
        assert svg.count('fill="rgb(255,255,255)"') == 1

    @pytest.mark.parametrize("n", [16, 256])
    def test_zipf_grid(self, n):
        dense = zipf_matrix(n, 1.3).to_dense()
        for log_scale in (False, True):
            assert matrix_heatmap_svg(dense, log_scale) == oracle_heatmap_svg(dense, log_scale)
