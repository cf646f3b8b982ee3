"""Fixtures shared by the test modules."""
import pytest

from cfslab import core


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so that workers=2 starts the
    pool."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)


@pytest.fixture
def fail_chunk(monkeypatch):
    """`fail_chunk(start)` makes the continuation chunk that begins at
    replication `start` raise FloatingPointError."""
    from cfslab import models

    real = models.continue_chunk

    def install(start):
        def fail(spec, ctx, grid_tail, block):
            if block.stream.path[-1] * core.BLOCK == start:
                raise FloatingPointError(f"chunk at {start} overflowed")
            return real(spec, ctx, grid_tail, block)

        monkeypatch.setattr(models, "continue_chunk", fail)

    return install


@pytest.fixture
def panels(monkeypatch):
    """`gaussian.lower_tri_matmul` on its `matmul` panels, as on a numpy
    that bundles no OpenBLAS: the loader finds no library."""
    from cfslab import gaussian

    monkeypatch.setattr(gaussian, "_blas", lambda: None)
