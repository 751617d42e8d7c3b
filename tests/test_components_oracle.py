"""Component labels and neighbour counts against their references.

The package labels the transpose, so ndimage's scan runs x fastest and
its ids already follow each component's first voxel in linear order;
the oracle renumbers C-order ids through a sort of the whole volume.
Neighbour counts are one 3-tap box sum per axis; the reference loops
over all 26 offsets.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import components_oracle, neighbor_counts_bruteforce
from tubekit.skeleton import _neighbor_counts, connected_components


def _fg(shape, density, seed):
    return np.random.default_rng(seed).random(shape) < density


@given(st.tuples(*[st.integers(1, 16)] * 3),
       st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_components_match_renumbering_oracle(shape, density, seed):
    fg = _fg(shape, density, seed)
    comp = connected_components(fg)
    labels, count, sizes = components_oracle(fg)
    assert comp.count == count
    assert comp.labels.dtype == labels.dtype
    assert comp.labels.tobytes() == labels.tobytes()
    assert comp.sizes.dtype == sizes.dtype
    assert comp.sizes.tolist() == sizes.tolist()


@given(st.tuples(*[st.integers(1, 8)] * 3),
       st.sampled_from([0.05, 0.3, 0.6, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_neighbor_counts_match_bruteforce(shape, density, seed):
    fg = _fg(shape, density, seed)
    assert np.array_equal(_neighbor_counts(fg), neighbor_counts_bruteforce(fg))
