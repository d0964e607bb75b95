import pytest

from monochain import spectral


@pytest.fixture
def perron_runs(monkeypatch):
    """A list that gains one entry per ``spectral.perron`` call during the test."""
    calls = []
    real = spectral.perron

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "perron", counting)
    return calls
