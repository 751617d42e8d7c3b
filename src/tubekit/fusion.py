"""Forward-only attention fusion blocks at toy scale.

Deterministic weights come from the counter-based generator, so every
run with the same seed reproduces identical outputs; there is no
training here, the blocks exist to verify shape/softmax/equivariance
invariants of the fusion design.

A FeatureMap stores (channels, d, h, w) with the last axis fastest, and
"tokens" are the flattened voxels of that layout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import uniform_range


@dataclass(frozen=True, eq=False)
class FeatureMap:
    channels: int
    spatial: tuple  # (d, h, w)
    data: np.ndarray  # float32, shape (channels,) + spatial

    def __post_init__(self):
        spatial = tuple(int(v) for v in self.spatial)
        data = np.asarray(self.data, dtype=np.float32)
        if data.shape != (self.channels,) + spatial:
            raise ParameterError(
                f"data shape {data.shape} does not match ({self.channels}, *{spatial})")
        if not np.all(np.isfinite(data)):
            raise ParameterError("feature map contains non-finite values")
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "data", data)

    def tokens(self) -> np.ndarray:
        """(T, C) view of the voxels, x-fastest token order."""
        return self.data.reshape(self.channels, -1).T


def feature_map_from_seed(channels: int, spatial, seed: int) -> FeatureMap:
    spatial = tuple(int(v) for v in spatial)
    n = channels * int(np.prod(spatial))
    data = uniform_range(seed, n, -1.0, 1.0).reshape((channels,) + spatial)
    return FeatureMap(channels, spatial, data.astype(np.float32))


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Single-head, bias-free projection weights, each d_model x d_model."""

    d_model: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    seed: int

    @classmethod
    def init(cls, d_model: int, seed: int = 0) -> "AttentionParams":
        bound = 1.0 / math.sqrt(d_model)

        def mat(sub):
            n = d_model * d_model
            return uniform_range(seed * 4 + sub, n, -bound, bound).reshape(d_model, d_model)

        return cls(d_model, mat(0), mat(1), mat(2), mat(3), seed)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def attention_rows(fq: FeatureMap, fkv: FeatureMap, p: AttentionParams) -> np.ndarray:
    """The softmax attention matrix (T_q, T_kv); rows sum to one."""
    if fq.channels != p.d_model or fkv.channels != p.d_model:
        raise ParameterError(
            f"channel counts ({fq.channels}, {fkv.channels}) must equal d_model {p.d_model}")
    q = fq.tokens() @ p.wq
    k = fkv.tokens() @ p.wk
    return _softmax_rows(q @ k.T / math.sqrt(p.d_model))


def cross_attention(fq: FeatureMap, fkv: FeatureMap, p: AttentionParams) -> FeatureMap:
    """Tokens of fq attend over tokens of fkv; output on fq's grid."""
    a = attention_rows(fq, fkv, p)
    v = fkv.tokens() @ p.wv
    out = (a @ v) @ p.wo  # (T_q, d_model)
    data = out.T.reshape((p.d_model,) + fq.spatial)
    return FeatureMap(p.d_model, fq.spatial, data.astype(np.float32))


def deep_mutual_query(fc4: FeatureMap, fv4: FeatureMap, p: AttentionParams):
    """Bidirectional cross-attention between the two deep streams, each
    summed with the self-attention of the key/value stream."""
    if fc4.channels != fv4.channels:
        raise ParameterError("deep features must share channel count")
    if fc4.spatial != fv4.spatial:
        raise ParameterError("deep features must share spatial dims")
    cross_v2c = cross_attention(fv4, fc4, p)
    cross_c2v = cross_attention(fc4, fv4, p)
    dq_v2c = FeatureMap(p.d_model, fc4.spatial,
                        cross_v2c.data + cross_attention(fc4, fc4, p).data)
    dq_c2v = FeatureMap(p.d_model, fv4.spatial,
                        cross_c2v.data + cross_attention(fv4, fv4, p).data)
    return dq_v2c, dq_c2v


# ---------------------------------------------------------------------------
# 2x pooling helpers for the shallow query
# ---------------------------------------------------------------------------

def _pool2(data: np.ndarray, mode: str) -> np.ndarray:
    """2x downsample per spatial axis (ceil sizes, replicate edge)."""
    out = data
    for axis in range(1, 4):
        n = out.shape[axis]
        if n % 2:
            pad = [(0, 0)] * out.ndim
            pad[axis] = (0, 1)
            out = np.pad(out, pad, mode="edge")
        shp = list(out.shape)
        m = shp[axis] // 2
        shp[axis:axis + 1] = [m, 2]
        out = out.reshape(shp)
        out = out.mean(axis=axis + 1) if mode == "avg" else out.max(axis=axis + 1)
    return out


def _unpool2(data: np.ndarray, spatial) -> np.ndarray:
    """Nearest-neighbor 2x upsample, cropped to the target spatial dims."""
    out = data
    for axis in range(1, 4):
        out = np.repeat(out, 2, axis=axis)
    sl = (slice(None),) + tuple(slice(0, s) for s in spatial)
    return out[sl]


def shallow_query(fci: FeatureMap, fvi: FeatureMap, p: AttentionParams,
                  w_mix: np.ndarray = None) -> FeatureMap:
    """Fuse the shallow streams, run pooled-token attention on one
    channel half, pass the other half through untouched.

    The fused map (sum + 1x1x1 mix) is split in half on channels; the
    attended half uses average-pooled queries and max-pooled keys at 2x
    downsampling, values cell-averaged to match, and the attended result
    is unpooled back so the concatenation restores the input shape.
    p.d_model must equal half the fused channel count.
    """
    if fci.channels != fvi.channels or fci.spatial != fvi.spatial:
        raise ParameterError("shallow features must share shape")
    c = fci.channels
    if c % 2:
        raise ParameterError("shallow query needs an even channel count")
    half = c // 2
    if p.d_model != half:
        raise ParameterError(f"attention d_model {p.d_model} must equal half channels {half}")

    if w_mix is None:
        bound = 1.0 / math.sqrt(c)
        w_mix = uniform_range(p.seed * 4 + 1013, c * c, -bound, bound).reshape(c, c)
    elif np.asarray(w_mix).shape != (c, c):
        raise ParameterError(f"w_mix must be ({c}, {c})")
    fused = np.einsum("oc,c...->o...", w_mix,
                      fci.data.astype(np.float64) + fvi.data.astype(np.float64))

    f_s1, f_s2 = fused[:half], fused[half:]
    q_cells = _pool2(f_s1, "avg")

    def toks(x):
        return x.reshape(x.shape[0], -1).T

    q = toks(q_cells) @ p.wq
    k = toks(_pool2(f_s1, "max")) @ p.wk
    v_full = np.einsum("ct,cd->dt", f_s1.reshape(half, -1), p.wv)
    v_cells = toks(_pool2(v_full.reshape((half,) + fci.spatial), "avg"))

    a = _softmax_rows(q @ k.T / math.sqrt(p.d_model))
    out_p = (a @ v_cells) @ p.wo  # (T_p, half)
    out_map = out_p.T.reshape((half,) + q_cells.shape[1:])
    f_s1_attn = _unpool2(out_map, fci.spatial)

    data = np.concatenate([f_s1_attn.astype(np.float32),
                           f_s2.astype(np.float32)], axis=0)
    return FeatureMap(c, fci.spatial, data)


# ---------------------------------------------------------------------------
# flexible convolution block
# ---------------------------------------------------------------------------

FLEX_KERNEL_SIZES = (1, 3, 5)


@dataclass(frozen=True, eq=False)
class FlexConvParams:
    """Parallel conv branches, one per FLEX_KERNEL_SIZES, and a 1x1x1 compressor."""

    branch_weights: tuple  # one (C_in, C_in, k, k, k) array per kernel size
    compress: np.ndarray   # (C_out, n_branches * C_in)

    @classmethod
    def init(cls, in_channels: int, out_channels: int, seed: int = 0) -> "FlexConvParams":
        branches = []
        for i, k in enumerate(FLEX_KERNEL_SIZES):
            n = in_channels * in_channels * k ** 3
            bound = 1.0 / math.sqrt(in_channels * k ** 3)
            w = uniform_range(seed * 16 + i, n, -bound, bound)
            branches.append(w.reshape(in_channels, in_channels, k, k, k))
        nc = len(FLEX_KERNEL_SIZES) * in_channels
        comp = uniform_range(seed * 16 + 15, out_channels * nc,
                             -1.0 / math.sqrt(nc), 1.0 / math.sqrt(nc))
        return cls(tuple(branches), comp.reshape(out_channels, nc))

    @classmethod
    def identity(cls, channels: int) -> "FlexConvParams":
        """Centered-delta branches and a compressor that selects the
        first branch, so the block is the identity map."""
        branches = []
        for k in FLEX_KERNEL_SIZES:
            w = np.zeros((channels, channels, k, k, k))
            for c in range(channels):
                w[c, c, k // 2, k // 2, k // 2] = 1.0
            branches.append(w)
        comp = np.zeros((channels, len(FLEX_KERNEL_SIZES) * channels))
        comp[:, :channels] = np.eye(channels)
        return cls(tuple(branches), comp)


def _conv3d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-padded same convolution, x (C_in, D, H, W), w (C_out, C_in, k,k,k)."""
    k = w.shape[2]
    r = k // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r), (r, r)))
    _, d, h, wd = x.shape
    out = np.zeros((w.shape[0], d, h, wd))
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                patch = xp[:, dz:dz + d, dy:dy + h, dx:dx + wd]
                out += np.einsum("oc,c...->o...", w[:, :, dz, dy, dx], patch)
    return out


def flex_conv_block(x: FeatureMap, p: FlexConvParams) -> FeatureMap:
    """Parallel branches concatenated on channels, then 1x1x1 compression."""
    feats = [_conv3d_same(x.data.astype(np.float64), w) for w in p.branch_weights]
    cat = np.concatenate(feats, axis=0)
    if p.compress.shape[1] != cat.shape[0]:
        raise ParameterError(
            f"compressor expects {p.compress.shape[1]} channels, got {cat.shape[0]}")
    out = np.einsum("oc,c...->o...", p.compress, cat)
    return FeatureMap(p.compress.shape[0], x.spatial, out.astype(np.float32))


# ---------------------------------------------------------------------------
# deep-to-shallow segmentation fusion
# ---------------------------------------------------------------------------

def _resize_axis(a: np.ndarray, axis: int, m: int) -> np.ndarray:
    n = a.shape[axis]
    if m == n:
        return a
    if m == 1:
        coord = np.array([(n - 1) / 2.0])
    else:
        coord = np.arange(m, dtype=np.float64) * (n - 1) / (m - 1)
    lo = np.floor(coord).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    w = coord - lo
    shape = [1] * a.ndim
    shape[axis] = m
    w = w.reshape(shape)
    return np.take(a, lo, axis=axis) * (1.0 - w) + np.take(a, hi, axis=axis) * w


def trilinear_resize(data: np.ndarray, spatial) -> np.ndarray:
    """Separable linear interpolation of (C, d, h, w) to new spatial dims."""
    out = np.asarray(data, dtype=np.float64)
    for axis, m in enumerate(spatial, start=1):
        out = _resize_axis(out, axis, int(m))
    return out


def d2sd_fuse(segs, target_dims) -> FeatureMap:
    """Upsample per-scale single-channel maps, average, squash to [0, 1].

    The uniform average over scales is the 1x1x1 fusion convolution; the
    output passes through a logistic.
    """
    if len(segs) < 2:
        raise ParameterError("d2sd_fuse needs at least two scales")
    if any(s.channels != 1 for s in segs):
        raise ParameterError("every scale map must be single-channel")
    target = tuple(int(v) for v in target_dims)
    w = 1.0 / len(segs)
    acc = np.zeros((1,) + target)
    for s in segs:
        acc += w * trilinear_resize(s.data, target)
    out = 1.0 / (1.0 + np.exp(-acc))
    return FeatureMap(1, target, out.astype(np.float32))
