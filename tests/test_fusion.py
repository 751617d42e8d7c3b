import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memory import traced
from oracles import conv3d_same_oracle
from tubekit import ParameterError, fusion
from tubekit.cli import main
from tubekit.fusion import (FLEX_KERNEL_SIZES, AttentionParams, FlexConvParams, _conv3d_same,
                            attention_rows, cross_attention, d2sd_fuse, deep_mutual_query,
                            feature_map_from_seed, flex_conv_block,
                            shallow_query, tokens, trilinear_resize)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tobytes()


# ---------------------------------------------------------------------------
# cross attention
# ---------------------------------------------------------------------------

def test_single_kv_token_returns_projected_value():
    p = AttentionParams.init(4, seed=1)
    fq = feature_map_from_seed(4, (2, 2, 2), 11)
    fkv = feature_map_from_seed(4, (1, 1, 1), 12)
    out = cross_attention(fq, fkv, p)
    expected = (tokens(fkv) @ p.wv) @ p.wo  # one row
    assert out.shape == fq.shape and out.dtype == np.float32
    assert np.abs(tokens(out) - expected).max() <= 1e-6


def test_identical_keys_average_values():
    p = AttentionParams.init(3, seed=2)
    fq = feature_map_from_seed(3, (2, 2, 1), 13)
    fkv = np.full((3, 2, 2, 1), 0.7, dtype=np.float32)
    out = cross_attention(fq, fkv, p)
    mean_v = (tokens(fkv) @ p.wv).mean(axis=0)
    expected = mean_v @ p.wo
    assert np.abs(tokens(out) - expected[None, :]).max() <= 1e-6


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for seed in range(5):
        c = int(rng.integers(2, 8))
        p = AttentionParams.init(c, seed=seed)
        fq = feature_map_from_seed(c, tuple(rng.integers(1, 4, 3)), seed + 50)
        fkv = feature_map_from_seed(c, tuple(rng.integers(1, 4, 3)), seed + 90)
        rows = attention_rows(fq, fkv, p)
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-6


def test_cross_attention_holds_one_logits_matrix():
    # Scale, shift, exp and normalise run in place on the one T x T
    # logits matrix; with a copy per step the peak was 4 of them.
    p = AttentionParams.init(8, seed=7)
    f = feature_map_from_seed(8, (12, 12, 12), 31)
    t = 12 ** 3
    out, _, peak = traced(cross_attention, f, f, p)
    assert out.shape == f.shape
    assert peak < 2 * t * t * 8, peak / (t * t * 8)


def test_token_permutation_equivariance():
    p = AttentionParams.init(5, seed=4)
    fq = feature_map_from_seed(5, (2, 2, 2), 21)
    fkv = feature_map_from_seed(5, (2, 3, 2), 22)
    out = cross_attention(fq, fkv, p)

    rng = np.random.default_rng(5)
    perm = rng.permutation(np.prod(fkv.shape[1:]))
    fkv_p = tokens(fkv)[perm].T.reshape(fkv.shape)
    out_p = cross_attention(fq, fkv_p, p)
    assert np.abs(out - out_p).max() <= 1e-10


def test_channel_mismatch_is_error():
    p = AttentionParams.init(4, seed=6)
    with pytest.raises(ParameterError):
        cross_attention(feature_map_from_seed(3, (2, 2, 2), 1),
                        feature_map_from_seed(4, (2, 2, 2), 2), p)


# block -> (channels, maps taken, run on a list of maps)
_BLOCKS = {
    "cross_attention": (2, 2, lambda fs: cross_attention(*fs, AttentionParams.init(2, 1))),
    "shallow_query": (2, 2, lambda fs: shallow_query(*fs, AttentionParams.init(1, 1))),
    "flex_conv_block": (2, 1, lambda fs: flex_conv_block(*fs, FlexConvParams.init(2, 2, 1))),
    "d2sd_fuse": (1, 2, lambda fs: d2sd_fuse(fs, (3, 3, 3))),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "3-D"])
@pytest.mark.parametrize("block", sorted(_BLOCKS))
def test_blocks_reject_non_finite_and_non_4d_maps(block, bad):
    channels, n_maps, run = _BLOCKS[block]
    good = feature_map_from_seed(channels, (2, 2, 2), 81)
    run([good] * n_maps)
    if bad == "3-D":
        broken = good[0]
    else:
        broken = good.copy()
        broken[0, 1, 0, 1] = float(bad)
    for i in range(n_maps):
        maps = [good] * n_maps
        maps[i] = broken
        with pytest.raises(ParameterError, match="feature map"):
            run(maps)


# ---------------------------------------------------------------------------
# deep mutual query
# ---------------------------------------------------------------------------

def test_dmq_symmetric_for_equal_inputs():
    p = AttentionParams.init(4, seed=7)
    f = feature_map_from_seed(4, (2, 2, 3), 31)
    a, b = deep_mutual_query(f, f, p)
    assert np.array_equal(a, b)


def test_dmq_on_one_object_matches_two_equal_maps_bit_for_bit():
    # One object shares each direction's self-attention as its cross
    # term; two equal objects compute both terms.
    p = AttentionParams.init(4, seed=7)
    f = feature_map_from_seed(4, (3, 2, 3), 35)
    for shared, apart in zip(deep_mutual_query(f, f, p), deep_mutual_query(f, f.copy(), p)):
        assert _bits(shared) == _bits(apart)


def test_dmq_zero_query_gives_uniform_average():
    p = AttentionParams.init(4, seed=8)
    fc4 = feature_map_from_seed(4, (2, 2, 2), 32)
    fv4 = np.zeros((4, 2, 2, 2))
    dq_v2c, _ = deep_mutual_query(fc4, fv4, p)
    v = tokens(fc4) @ p.wv
    uniform_cross = (v.mean(axis=0) @ p.wo)[None, :]
    expected = uniform_cross + tokens(cross_attention(fc4, fc4, p))
    assert np.abs(tokens(dq_v2c) - expected).max() <= 1e-5


def test_dmq_output_shape_contract():
    p = AttentionParams.init(6, seed=9)
    fc4 = feature_map_from_seed(6, (3, 2, 2), 33)
    fv4 = feature_map_from_seed(6, (3, 2, 2), 34)
    a, b = deep_mutual_query(fc4, fv4, p)
    assert a.shape == fc4.shape == (6, 3, 2, 2)
    assert b.shape == fv4.shape == (6, 3, 2, 2)


# ---------------------------------------------------------------------------
# shallow query
# ---------------------------------------------------------------------------

def test_shallow_query_shape_preserved():
    p = AttentionParams.init(4, seed=10)
    fci = feature_map_from_seed(8, (3, 4, 5), 41)
    fvi = feature_map_from_seed(8, (3, 4, 5), 42)
    out = shallow_query(fci, fvi, p)
    assert out.shape == (8, 3, 4, 5)


def test_shallow_query_constant_half_stays_constant():
    p = AttentionParams.init(2, seed=11)
    const_c = np.full((4, 4, 4, 4), 0.3)
    const_v = np.full((4, 4, 4, 4), -0.1)
    out = shallow_query(const_c, const_v, p)
    attended = out[:2]
    for ch in range(2):
        vals = attended[ch]
        assert np.abs(vals - vals.ravel()[0]).max() <= 1e-6


def test_shallow_query_second_half_passthrough():
    p = AttentionParams.init(3, seed=12)
    fci = feature_map_from_seed(6, (2, 3, 2), 43)
    fvi = feature_map_from_seed(6, (2, 3, 2), 44)
    out = shallow_query(fci, fvi, p, w_mix=np.eye(6))
    fused = (fci.astype(np.float64) + fvi.astype(np.float64))
    expected_second = fused[3:].astype(np.float32)
    assert np.array_equal(out[3:], expected_second)


def test_shallow_query_rejects_odd_channels():
    p = AttentionParams.init(2, seed=13)
    f = feature_map_from_seed(5, (2, 2, 2), 45)
    with pytest.raises(ParameterError):
        shallow_query(f, f, p)


# ---------------------------------------------------------------------------
# flexible convolution block
# ---------------------------------------------------------------------------

def test_flex_conv_identity_configuration():
    f = feature_map_from_seed(4, (5, 5, 5), 51)
    out = flex_conv_block(f, FlexConvParams.identity(4))
    assert np.array_equal(out, f)


def test_flex_conv_zero_input_zero_output():
    p = FlexConvParams.init(3, 5, seed=14)
    zero = np.zeros((3, 4, 4, 4))
    out = flex_conv_block(zero, p)
    assert out.shape == (5, 4, 4, 4)
    assert not out.any()


def test_flex_conv_receptive_field_of_impulse():
    p = FlexConvParams.init(2, 2, seed=15)
    data = np.zeros((2, 9, 9, 9), dtype=np.float32)
    data[0, 4, 4, 4] = 1.0
    out = flex_conv_block(data, p)
    nz = np.argwhere(out != 0)
    assert nz.size > 0
    assert np.abs(nz[:, 1:] - 4).max() <= 2  # max kernel 5 -> radius 2


@given(st.sampled_from(FLEX_KERNEL_SIZES), st.integers(1, 4), st.integers(1, 4),
       st.tuples(*[st.integers(1, 6)] * 3), st.sampled_from(["random", "identity"]),
       st.integers(0, 2 ** 32 - 1))
def test_conv3d_same_matches_the_every_tap_oracle_bit_for_bit(k, c_in, c_out, dims, kind,
                                                              seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c_in,) + dims)
    zeros = rng.random(x.shape)
    x[zeros < 0.2] = -0.0
    x[zeros > 0.9] = 0.0
    if kind == "identity":
        w = FlexConvParams.identity(c_in).branch_weights[FLEX_KERNEL_SIZES.index(k)]
    else:
        w = rng.standard_normal((c_out, c_in, k, k, k))
        w[rng.random(w.shape) < 0.2] = -0.0
        # Whole taps of +0.0, of -0.0 and of both signs of zero.
        tap_kind = rng.integers(0, 4, (k, k, k))
        w[..., tap_kind == 1] = 0.0
        w[..., tap_kind == 2] = -0.0
        w[..., tap_kind == 3] = np.where(rng.random(w[..., tap_kind == 3].shape) < 0.5,
                                         0.0, -0.0)
    assert _bits(_conv3d_same(x, w)) == _bits(conv3d_same_oracle(x, w))


def test_fusion_demo_skips_zero_taps_and_repeated_attention(tmp_path, monkeypatch):
    counts = {"attention": 0, "einsum": 0}
    per_flex_call = []
    weights, einsum, flex = fusion._attention_weights, np.einsum, fusion.flex_conv_block

    def counted(key, fn):
        def run(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return run

    def flex_counted(*args, **kwargs):
        before = counts["einsum"]
        out = flex(*args, **kwargs)
        per_flex_call.append(counts["einsum"] - before)
        return out

    monkeypatch.setattr(fusion, "_attention_weights", counted("attention", weights))
    monkeypatch.setattr(np, "einsum", counted("einsum", einsum))
    monkeypatch.setattr(fusion, "flex_conv_block", flex_counted)
    out = tmp_path / "demo.json"
    assert main(["fusion-demo", "--dims", "6,6,6", "--channels", "8", "--json", str(out)]) == 0
    # dmq(fc4, fv4) 4, dmq(fc4, fc4) 2 (4 with every term), attention_rows,
    # the single-token check and the shallow query 1 each.
    assert counts["attention"] == 9
    # Random branches run all 1 + 27 + 125 taps, the identity one centre
    # tap per branch (153 with every tap); one more for the compressor.
    assert per_flex_call == [154, 4]
    invariants = json.loads(out.read_text())["invariants"]
    assert invariants["flex_conv_identity_exact"] is True
    assert invariants["dmq_symmetric_on_equal_inputs"] is True


# ---------------------------------------------------------------------------
# d2sd fusion
# ---------------------------------------------------------------------------

def test_d2sd_constant_scales_give_logistic():
    c = 0.8
    segs = [np.full((1, n, n, n), c) for n in (2, 3, 5)]
    out = d2sd_fuse(segs, (6, 6, 6))
    expected = 1.0 / (1.0 + np.exp(-c))
    assert np.abs(out - expected).max() <= 1e-6


def test_d2sd_shape_contract_50_random_draws():
    rng = np.random.default_rng(17)
    for i in range(50):
        n_scales = int(rng.integers(2, 5))
        segs = [feature_map_from_seed(1, tuple(rng.integers(1, 7, 3)), 100 + i * 8 + j)
                for j in range(n_scales)]
        target = tuple(rng.integers(2, 10, 3))
        out = d2sd_fuse(segs, target)
        assert out.shape == (1, *target)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_d2sd_validation():
    one = [feature_map_from_seed(1, (2, 2, 2), 61)]
    with pytest.raises(ParameterError):
        d2sd_fuse(one, (4, 4, 4))
    two_chan = [feature_map_from_seed(2, (2, 2, 2), 62),
                feature_map_from_seed(2, (2, 2, 2), 63)]
    with pytest.raises(ParameterError):
        d2sd_fuse(two_chan, (4, 4, 4))


def test_trilinear_constant_exact_and_endpoint_interp():
    const = np.full((1, 3, 3, 3), 1.25)
    out = trilinear_resize(const, (7, 5, 2))
    assert np.abs(out - 1.25).max() == 0.0
    line = np.zeros((1, 1, 1, 3))
    line[0, 0, 0] = [0.0, 1.0, 2.0]
    up = trilinear_resize(line, (1, 1, 5))
    assert np.allclose(up[0, 0, 0], [0.0, 0.5, 1.0, 1.5, 2.0])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_seeded_feature_maps_and_params_reproducible():
    a = feature_map_from_seed(3, (4, 4, 4), 77)
    b = feature_map_from_seed(3, (4, 4, 4), 77)
    assert np.array_equal(a, b)
    c = feature_map_from_seed(3, (4, 4, 4), 78)
    assert not np.array_equal(a, c)

    p1 = AttentionParams.init(5, seed=9)
    p2 = AttentionParams.init(5, seed=9)
    assert np.array_equal(p1.wq, p2.wq) and np.array_equal(p1.wo, p2.wo)

    f = feature_map_from_seed(4, (2, 2, 2), 79)
    o1 = cross_attention(f, f, AttentionParams.init(4, seed=9))
    o2 = cross_attention(f, f, AttentionParams.init(4, seed=9))
    assert np.array_equal(o1, o2)
