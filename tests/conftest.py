import pytest

from maxforms import bessel, spectrum2d


@pytest.fixture
def empty_stores(monkeypatch):
    """Empty every per-process store (maxforms._kept lists them) for this
    test, restoring the process's own at teardown.  Returns a callable that
    empties them again, so a test can compare cold and warm runs."""
    monkeypatch.setattr(bessel, "_TABLES", {})
    monkeypatch.setattr(spectrum2d, "_RADIAL_VALUES", {})
    monkeypatch.setattr(spectrum2d, "_EIGENFORMS", {})
    monkeypatch.setattr(spectrum2d, "_LAST_BATCH", [(None, None)])

    def empty():
        bessel._TABLES.clear()
        spectrum2d._RADIAL_VALUES.clear()
        spectrum2d._EIGENFORMS.clear()
        spectrum2d._LAST_BATCH[0] = (None, None)

    return empty
