"""Fixtures shared by the test modules."""

import pytest

from bernstein_lab import rotations


@pytest.fixture
def no_flattening(monkeypatch):
    """Building either flattening start raises ValueError, as building one
    can (a tall differential scaled by 1e11 fails the orthogonality check),
    so a rotation search descends from the identity and the restarts."""
    def refuse(a):
        raise ValueError("no flattening start")

    monkeypatch.setattr(rotations, "_flattening_block", refuse)
    monkeypatch.setattr(rotations, "_unitary_flattening", refuse)
