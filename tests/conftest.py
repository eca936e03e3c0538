"""Fixtures shared by the test modules."""

import pytest

from bernstein_lab import rotations


@pytest.fixture
def no_flattening(monkeypatch):
    """Building either flattening start raises ValueError, which no input
    does, so a rotation search descends from the identity and the restarts:
    the descent digests and kernel counts pin that search."""
    def refuse(a):
        raise ValueError("no flattening start")

    monkeypatch.setattr(rotations, "_flattening_block", refuse)
    monkeypatch.setattr(rotations, "_unitary_flattening", refuse)
