"""Fixtures shared by the test modules."""
import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs whatever the host has, so that workers=2 starts the pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def fail_chunk(monkeypatch):
    """`fail_chunk(start)` makes the continuation chunk that begins at
    replication `start` raise FloatingPointError."""
    from cfslab import models

    real = models.continue_chunk

    def install(start):
        def fail(spec, ctx, grid_tail, streams):
            if streams.indices.start == start:
                raise FloatingPointError(f"chunk at {start} overflowed")
            return real(spec, ctx, grid_tail, streams)

        monkeypatch.setattr(models, "continue_chunk", fail)

    return install
