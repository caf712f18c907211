import pytest

from ovalab.evolve import FlowHistory, FlowState


@pytest.fixture
def recorded_history():
    """Factory for a FlowHistory of renormalized states, one per time,
    each made by maker(grid, tau)."""

    def build(grid, times, maker):
        hist = FlowHistory()
        for tau in times:
            hist.append(FlowState(time=float(tau), v=maker(grid, float(tau))))
        return hist

    return build
