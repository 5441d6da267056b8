import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gaitreg.svgplot import STANCE_SWING_BOUNDARY, band_plot_svg

NS = {"svg": "http://www.w3.org/2000/svg"}


def plot(n):
    phase = np.linspace(0.0, 1.0, n)
    mean = 2.0 + np.sin(2 * np.pi * phase)
    half_band = 0.5 + 1.5 * phase  # reaches below zero near the end, where the band is clipped
    return ET.fromstring(band_plot_svg(mean, half_band, "NormalWalk: ankle angle", "MAE (deg)"))


def frame(root):
    """(left, top, right, bottom) of the plot frame, the rect drawn without fill."""
    rect = root.find("svg:rect[@fill='none']", NS)
    x, y, w, h = (float(rect.get(k)) for k in ("x", "y", "width", "height"))
    return x, y, x + w, y + h


@pytest.mark.parametrize("n", [2, 101, 1000])
class TestBandPlot:
    def test_x_ticks_read_0_to_100_in_steps_of_20(self, n):
        root = plot(n)
        _, _, _, bottom = frame(root)
        below = [el for el in root.findall("svg:text", NS) if float(el.get("y")) == bottom + 16]
        assert [el.text for el in below] == ["0", "20", "40", "60", "80", "100"]

    def test_dashed_divider_sits_at_the_stance_swing_boundary(self, n):
        root = plot(n)
        left, top, right, bottom = frame(root)
        (divider,) = root.findall("svg:line[@stroke-dasharray]", NS)
        x = left + STANCE_SWING_BOUNDARY / 100.0 * (right - left)
        assert STANCE_SWING_BOUNDARY == 60.0
        assert float(divider.get("x1")) == float(divider.get("x2")) == pytest.approx(x, abs=0.005)
        assert (float(divider.get("y1")), float(divider.get("y2"))) == (top, bottom)

    def test_phase_labels_are_present(self, n):
        labels = {el.text: el for el in plot(n).findall("svg:text", NS)}
        assert {"stance", "swing", "gait phase (%)", "MAE (deg)"} <= labels.keys()
        assert float(labels["stance"].get("x")) < float(labels["swing"].get("x"))

    def test_every_curve_and_band_point_lies_inside_the_frame(self, n):
        root = plot(n)
        left, top, right, bottom = frame(root)
        (line,) = root.findall("svg:polyline", NS)
        (band,) = root.findall("svg:polygon", NS)
        assert len(line.get("points").split()) == n
        assert len(band.get("points").split()) == 2 * n
        for shape in (line, band):
            points = np.array([p.split(",") for p in shape.get("points").split()], dtype=float)
            assert (points[:, 0] >= left).all() and (points[:, 0] <= right).all()
            assert (points[:, 1] >= top).all() and (points[:, 1] <= bottom).all()
        xs = np.array([p.split(",")[0] for p in line.get("points").split()], dtype=float)
        assert (xs[0], xs[-1]) == (left, right)
