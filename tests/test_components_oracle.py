"""Component labels, voxel lists and neighbour counts against their
references.

The package labels the transpose, so ndimage's scan runs x fastest and
its ids already follow each component's first voxel in linear order;
the oracle renumbers C-order ids through a sort of the whole volume.
Voxel lists sort the C-order flat indices by linear index; the oracle
sorts ``np.argwhere`` rows.  Neighbour counts are one 3-tap box sum per
axis; the reference loops over all 26 offsets.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import (_oracle_linear, _oracle_sorted, components_oracle,
                     neighbor_counts_bruteforce)
from tubekit.skeleton import _neighbor_counts, _voxels, connected_components


def _fg(shape, density, seed):
    return np.random.default_rng(seed).random(shape) < density


masks = (st.tuples(*[st.integers(1, 16)] * 3),
         st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.7, 1.0]),  # empty to full
         st.integers(0, 2 ** 32 - 1))


@given(*masks)
def test_components_match_renumbering_oracle(shape, density, seed):
    fg = _fg(shape, density, seed)
    got, got_count = connected_components(fg)
    labels, count = components_oracle(fg)
    assert got_count == count
    assert got.dtype == labels.dtype
    assert got.tobytes() == labels.tobytes()


@given(*masks)
def test_voxels_list_every_voxel_in_linear_order(shape, density, seed):
    fg = _fg(shape, density, seed)
    lin, pts = _voxels(fg)
    want = _oracle_sorted(np.argwhere(fg), fg.shape)
    assert pts.dtype == want.dtype and pts.shape == want.shape
    assert pts.tobytes() == want.tobytes()
    assert lin.tolist() == _oracle_linear(want, fg.shape).tolist()


@given(st.tuples(*[st.integers(1, 8)] * 3),
       st.sampled_from([0.05, 0.3, 0.6, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_neighbor_counts_match_bruteforce(shape, density, seed):
    fg = _fg(shape, density, seed)
    assert np.array_equal(_neighbor_counts(fg), neighbor_counts_bruteforce(fg))
