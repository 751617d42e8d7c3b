"""The skeleton engine against the stacked-argmin, full-k oracle.

The package pools with min/max of shifted views, scatters the adjoint
over the nonzero gradient only, shares the opening's erosion with the
next iteration and stops once an erosion is all zero; the oracle does
none of this, so byte-equal results pin the tie rule, the stopping rule
and the adjoint together.  The pooling primitives are also pinned to
their former scipy-filter and padded-accumulator versions on inputs
holding signed zeros and infinities, where only the bits can differ.
The tape, which keeps only each stage's delta nonzeros, is pinned to the
former tape that kept each stage's skeleton and delta whole.  The pooling
and the recurrence run slab by slab of the slab plan; with
``SLAB_VOXELS`` patched small the inputs here split into one-plane slabs
and ragged last slabs, and every bit must stay the same.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (dense_stage_tape_oracle, pool3_scipy_oracle, scatter3_padded_oracle,
                     soft_skeleton_tape_oracle)
from tubekit import workers
from tubekit.skeleton import (SoftSkeletonTape, _pool3, _scatter3, hard_skeleton,
                              soft_skeleton_array)

H = 1e-3
SMALL_SLABS = [1, 7, 40]  # voxels a slab: one-plane slabs, ragged last slabs


def _field(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random(shape)
    if kind == "mask":
        return (rng.random(shape) < 0.6).astype(np.float64)
    if kind == "wide":  # beyond [0, 1] the skeleton passes 1, where t's relu cuts
        return 3.0 * rng.random(shape)
    if kind == "box":  # sides of 3 or more: the opening keeps it, stage 0 adds nothing
        lo = [int(rng.integers(0, n - 2)) for n in shape]
        box = tuple(slice(a, int(rng.integers(a + 3, n + 1))) for a, n in zip(lo, shape))
        x = np.zeros(shape)
        x[box] = rng.integers(1, 5) / 4.0
        return x
    x = rng.integers(0, 5, shape) / 4.0  # quantised: ties everywhere
    if kind == "signed_zeros":
        x[rng.random(shape) < 0.5] *= -0.0
    return x


cases = st.tuples(
    st.sampled_from(["uniform", "mask", "quantised", "wide"]),
    st.tuples(*[st.integers(3, 12)] * 3),
    st.integers(1, 10),
    st.integers(0, 2 ** 32 - 1),
)


@given(cases)
def test_forward_and_backward_match_oracle(case):
    kind, shape, k, seed = case
    x = _field(kind, shape, seed)
    oracle = soft_skeleton_tape_oracle(x, k)
    tape = SoftSkeletonTape(x, k)
    assert tape.iterations <= k
    assert tape.skeleton.tobytes() == oracle.skeleton.tobytes()
    if kind != "wide":  # soft_skeleton_array takes [0, 1] only
        assert soft_skeleton_array(x, k).tobytes() == oracle.skeleton.tobytes()

    mask = (x >= 0.5).astype(np.uint8)
    expected = soft_skeleton_tape_oracle(mask, k).skeleton >= 0.5
    assert hard_skeleton(mask > 0, k).tobytes() == expected.tobytes()

    rng = np.random.default_rng(seed + 1)
    g = rng.standard_normal(shape)
    assert tape.backward(g).tobytes() == oracle.backward(g).tobytes()

    # A sparse gradient, as the connectivity loss gives: signed zeros
    # almost everywhere, nonzeros beside the zero pad.
    g = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    edge = np.zeros(shape, dtype=bool)
    for axis in range(3):
        np.moveaxis(edge, axis, 0)[[0, -1]] = True
    edge &= rng.random(shape) < 0.3
    g[edge] = rng.standard_normal(int(edge.sum()))
    assert tape.backward(g).tobytes() == oracle.backward(g).tobytes()


@given(st.tuples(*[st.integers(1, 9)] * 3), st.floats(0.0, 1.0), st.integers(1, 12),
       st.integers(0, 2 ** 32 - 1))
def test_hard_skeleton_in_uint8_matches_the_float_oracle(shape, density, k, seed):
    # Thin dims put most voxels beside the zero pad.
    fg = np.random.default_rng(seed).random(shape) < density
    expected = soft_skeleton_tape_oracle(fg.astype(np.float64), k).skeleton >= 0.5
    assert hard_skeleton(fg, k).tobytes() == expected.tobytes()


@given(cases)
def test_tie_free_verdict_matches_oracle(case):
    kind, shape, k, seed = case
    x = _field(kind, shape, seed)
    sig_tape = SoftSkeletonTape(x, k).signature()
    sig_oracle = soft_skeleton_tape_oracle(x, k).signature()
    rng = np.random.default_rng(seed + 2)
    for _ in range(3):
        v = tuple(int(rng.integers(0, n)) for n in shape)
        verdicts = []
        for make, sig0 in ((SoftSkeletonTape, sig_tape),
                           (soft_skeleton_tape_oracle, sig_oracle)):
            same = True
            for step in (H, -H):
                xs = x.copy()
                xs[v] += step
                same = same and make(xs, k).signature() == sig0
            verdicts.append(same)
        assert verdicts[0] == verdicts[1], v


@given(st.tuples(
    st.sampled_from(["uniform", "mask", "quantised", "wide", "signed_zeros", "box"]),
    st.tuples(*[st.integers(3, 12)] * 3),
    st.integers(1, 10),
    st.integers(0, 2 ** 32 - 1),
))
@example(("box", (9, 9, 9), 10, 0))
@example(("uniform", (7, 6, 8), 1, 0))
def test_lean_tape_matches_the_dense_stage_tape(case):
    kind, shape, k, seed = case
    x = _field(kind, shape, seed)
    dense = dense_stage_tape_oracle(x, k)
    tape = SoftSkeletonTape(x, k)
    assert tape.iterations == dense.iterations
    assert tape.skeleton.tobytes() == dense.skeleton.tobytes()
    assert tape.signature() == dense.signature()
    if kind == "box":
        assert not dense.stages[0][1].any()

    # Voxels that no stage's delta reaches, like the lines the connectivity
    # loss draws, in the gradient's support beside other voxels.
    quiet = np.all([delta == 0 for _, delta in dense.stages], axis=0)
    rng = np.random.default_rng(seed + 3)
    g = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    support = (rng.random(shape) < 0.2) | (quiet & (rng.random(shape) < 0.5))
    g[support] = rng.standard_normal(int(support.sum()))
    assert tape.backward(g).tobytes() == dense.backward(g).tobytes()
    g = rng.standard_normal(shape)
    assert tape.backward(g).tobytes() == dense.backward(g).tobytes()


def _bits(x):
    return x.view(np.uint64).tobytes()


@given(st.tuples(*[st.integers(1, 9)] * 3), st.sampled_from(["min", "max"]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(SMALL_SLABS + [workers.SLAB_VOXELS]))
def test_pool_and_scatter_match_former_code_bitwise(shape, mode, seed, slab):
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, shape) / 2.0  # ties everywhere, signs both ways
    x[rng.random(shape) < 0.3] = -0.0
    # Signed zeros as the pool's extreme, so the sign of a pooled zero
    # shows which operand each min or max returned.
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    zeros[rng.random(shape) < 0.2] = 0.5 if mode == "min" else -0.5
    rec, old = [], []
    with mock.patch.object(workers, "SLAB_VOXELS", slab):
        for a in (zeros, x):
            rec[:], old[:] = [], []
            assert _bits(_pool3(a, mode, rec)) == _bits(pool3_scipy_oracle(a, mode, old))
            assert _bits(_pool3(a, mode)) == _bits(pool3_scipy_oracle(a, mode))
            offs = [(rec[0] // 3 ** axis % 3).astype(np.int8) - 1 for axis in range(3)]
            assert [o.tobytes() for o in offs] == [o.tobytes() for o in old[0]]

    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.3] = -0.0
    g[rng.random(shape) < 0.2] = 0.0
    g[rng.random(shape) < 0.05] = np.inf
    g[rng.random(shape) < 0.05] = -np.inf
    idx = np.flatnonzero(g)
    out = np.zeros(g.size)
    with np.errstate(invalid="ignore"):
        routed_idx, routed = _scatter3(idx, g.ravel()[idx], rec[0], shape)
        out[routed_idx] = routed
        assert _bits(out.reshape(shape)) == _bits(scatter3_padded_oracle(g, old[0]))


@given(cases, st.sampled_from(SMALL_SLABS))
@example(("quantised", (12, 12, 12), 10, 0), 40)
def test_recurrence_keeps_its_bits_across_slab_plans(case, slab):
    # At the real slab size every drawn shape fits in one slab.
    kind, shape, k, seed = case
    x = _field(kind, shape, seed)
    g = np.random.default_rng(seed + 4).standard_normal(shape)

    def run():
        tape = SoftSkeletonTape(x, k)
        soft = b"" if kind == "wide" else soft_skeleton_array(x, k).tobytes()
        return (tape.skeleton.tobytes(), tape.signature(), tape.backward(g).tobytes(),
                soft, hard_skeleton(x >= 0.5, k).tobytes())

    whole = run()
    with mock.patch.object(workers, "SLAB_VOXELS", slab):
        assert run() == whole


def test_stops_once_the_erosion_is_empty():
    x = np.zeros((9, 9, 9))
    x[2:7, 2:7, 2:7] = 1.0  # a 5^3 cube: the third erosion is empty
    tape = SoftSkeletonTape(x, 10)
    assert tape.iterations == 2
    assert tape.skeleton.tobytes() == soft_skeleton_tape_oracle(x, 10).skeleton.tobytes()
