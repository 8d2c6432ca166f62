import math

import pytest

from mublines import framecore
from mublines.constructions import construction3_solve


@pytest.fixture(params=[None, 2**5], ids=["chunk-shipped", "chunk-32"])
def chunk(request, monkeypatch):
    """framecore._CHUNK as shipped, then lowered to 2^5 entries, which sizes
    every chunked walk by framecore._tile: so the float Gram's row tiles,
    lines_equal's candidates, the pair masks and c1_search's survivors all
    run over several tiles even at d <= 5 (at 2^6, the 16 candidates of
    lines_equal on 16 lines in C^4 would still fit one tile)."""
    if request.param is not None:
        monkeypatch.setattr(framecore, "_CHUNK", request.param)


@pytest.fixture
def c3_circle():
    """c3_circle(d, n): the points of construction3_solve(d), then n points
    (a, b) evenly spaced around its circle b^2 + (a - 1)^2 = sqrt(d), from
    (1 + d^(1/4), 0)."""
    def points(d, n):
        radius, turns = d ** 0.25, [2 * math.pi * s / n for s in range(n)]
        return construction3_solve(d) + [(1.0 + radius * math.cos(t), radius * math.sin(t))
                                         for t in turns]
    return points
