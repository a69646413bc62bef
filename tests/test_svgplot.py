import pytest

from drillstab import svgplot


@pytest.mark.parametrize("value", [0.5, 1e300, -1e300])
def test_single_point_opens_its_range(value):
    # adding 1 to 1e300 leaves it unchanged; the range must still open
    svg = svgplot.render([svgplot.Series(x=[value], y=[value])], "x", "y")
    assert "nan" not in svg and svg.count("<polyline") == 1
