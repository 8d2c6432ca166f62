import pytest

from mublines import framecore


@pytest.fixture(params=[None, 2**5], ids=["chunk-shipped", "chunk-32"])
def chunk(request, monkeypatch):
    """framecore._CHUNK as shipped, then lowered to 2^5 entries, which sizes
    every chunked walk by framecore._tile: so the float Gram's row tiles,
    lines_equal's candidates, the pair masks and c1_search's survivors all
    run over several tiles even at d <= 5 (at 2^6, the 16 candidates of
    lines_equal on 16 lines in C^4 would still fit one tile)."""
    if request.param is not None:
        monkeypatch.setattr(framecore, "_CHUNK", request.param)
