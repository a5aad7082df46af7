"""Helpers shared by the test modules."""

from blowuplab.grids import to_even_grid
from blowuplab.model import make_initial_data


def on_even_grid(init):
    """The same data as their samples on the even grid of [0, L]^dim."""
    return make_initial_data(to_even_grid(init.u0), to_even_grid(init.u1),
                             compact_support=init.compact_support)
