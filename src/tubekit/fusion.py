"""Forward-only attention fusion blocks at toy scale.

Deterministic weights come from the counter-based generator, so every
run with the same seed reproduces identical outputs; there is no
training here, the blocks exist to verify shape/softmax/equivariance
invariants of the fusion design.

A feature map is a float32 ndarray (channels, d, h, w) with the last
axis fastest, and "tokens" are the flattened voxels of that layout.
Each block checks that its input maps are 4-D and finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import uniform_range


def _checked_map(f) -> np.ndarray:
    """The feature map f as float32; it must be 4-D and finite."""
    f = np.asarray(f, dtype=np.float32)
    if f.ndim != 4:
        raise ParameterError(f"feature map must be (channels, d, h, w), got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ParameterError("feature map contains non-finite values")
    return f


def tokens(f: np.ndarray) -> np.ndarray:
    """(T, C) view of the voxels of a (C, ...) map, x-fastest token order."""
    return f.reshape(len(f), -1).T


def feature_map_from_seed(channels: int, spatial, seed: int) -> np.ndarray:
    spatial = tuple(int(v) for v in spatial)
    n = channels * int(np.prod(spatial))
    data = uniform_range(seed, n, -1.0, 1.0).reshape((channels,) + spatial)
    return data.astype(np.float32)


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Single-head, bias-free projection weights, each d_model x d_model."""

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

        return cls(mat(0), mat(1), mat(2), mat(3), seed)

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]


def _attention_weights(q: np.ndarray, k: np.ndarray, d_model: int) -> np.ndarray:
    """Row softmax of q @ k.T / sqrt(d_model), scaled, shifted,
    exponentiated and normalised in place on the one logits matrix."""
    a = q @ k.T
    a /= math.sqrt(d_model)
    a -= a.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return a


def attention_rows(fq, fkv, p: AttentionParams) -> np.ndarray:
    """The softmax attention matrix (T_q, T_kv); rows sum to one."""
    fq, fkv = _checked_map(fq), _checked_map(fkv)
    if len(fq) != p.d_model or len(fkv) != p.d_model:
        raise ParameterError(
            f"channel counts ({len(fq)}, {len(fkv)}) must equal d_model {p.d_model}")
    q = tokens(fq) @ p.wq
    k = tokens(fkv) @ p.wk
    return _attention_weights(q, k, p.d_model)


def cross_attention(fq, fkv, p: AttentionParams) -> np.ndarray:
    """Tokens of fq attend over tokens of fkv; output on fq's grid.  Self
    attention is ``cross_attention(f, f, p)``."""
    fq, fkv = _checked_map(fq), _checked_map(fkv)
    a = attention_rows(fq, fkv, p)
    v = tokens(fkv) @ p.wv
    out = (a @ v) @ p.wo  # (T_q, d_model)
    return out.T.reshape((p.d_model,) + fq.shape[1:]).astype(np.float32)


def deep_mutual_query(fc4, fv4, p: AttentionParams):
    """Bidirectional cross-attention between the two deep streams, each
    summed with the self-attention of the key/value stream, formed once
    per direction; it is also the cross term when fc4 is fv4, and the two
    directions are still computed apart."""
    same = fc4 is fv4
    fc4, fv4 = _checked_map(fc4), _checked_map(fv4)
    if len(fc4) != len(fv4):
        raise ParameterError("deep features must share channel count")
    if fc4.shape != fv4.shape:
        raise ParameterError("deep features must share spatial dims")

    def direction(fq, fkv):
        self_kv = cross_attention(fkv, fkv, p)
        return (self_kv if same else cross_attention(fq, fkv, p)) + self_kv

    return direction(fv4, fc4), direction(fc4, fv4)


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


def shallow_query(fci, fvi, p: AttentionParams, w_mix: np.ndarray = None) -> np.ndarray:
    """Fuse the shallow streams, run pooled-token attention on one
    channel half, pass the other half through untouched.

    The fused map (sum + 1x1x1 mix) is split in half on channels; the
    attended half uses average-pooled queries and max-pooled keys at 2x
    downsampling, values cell-averaged to match, and the attended result
    is unpooled back so the concatenation restores the input shape.
    p.d_model must equal half the fused channel count.
    """
    fci, fvi = _checked_map(fci), _checked_map(fvi)
    if fci.shape != fvi.shape:
        raise ParameterError("shallow features must share shape")
    c, spatial = len(fci), fci.shape[1:]
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
                      fci.astype(np.float64) + fvi.astype(np.float64))

    f_s1, f_s2 = fused[:half], fused[half:]
    q_cells = _pool2(f_s1, "avg")
    q = tokens(q_cells) @ p.wq
    k = tokens(_pool2(f_s1, "max")) @ p.wk
    v_full = np.einsum("ct,cd->dt", f_s1.reshape(half, -1), p.wv)
    v_cells = tokens(_pool2(v_full.reshape((half,) + spatial), "avg"))

    a = _attention_weights(q, k, p.d_model)
    out_p = (a @ v_cells) @ p.wo  # (T_p, half)
    out_map = out_p.T.reshape((half,) + q_cells.shape[1:])
    f_s1_attn = _unpool2(out_map, spatial)
    return np.concatenate([f_s1_attn.astype(np.float32),
                           f_s2.astype(np.float32)], axis=0)


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
    """Zero-padded same convolution, x (C_in, D, H, W), w (C_out, C_in, k,k,k).

    Taps run in (dz, dy, dx) order, skipping each whose weights are all
    zero.  That is exact for finite x: out starts at +0.0 and a sum is
    -0.0 only when both addends are, so out never holds -0.0, and a
    skipped tap would have added only +-0.0.  The identity block's
    branches run 3 of their 153 taps."""
    r = w.shape[2] // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r), (r, r)))
    _, d, h, wd = x.shape
    out = np.zeros((w.shape[0], d, h, wd))
    for dz, dy, dx in np.argwhere(w.any(axis=(0, 1))):
        patch = xp[:, dz:dz + d, dy:dy + h, dx:dx + wd]
        out += np.einsum("oc,c...->o...", w[:, :, dz, dy, dx], patch)
    return out


def flex_conv_block(x, p: FlexConvParams) -> np.ndarray:
    """Parallel branches concatenated on channels, then 1x1x1 compression."""
    x = _checked_map(x).astype(np.float64)
    feats = [_conv3d_same(x, w) for w in p.branch_weights]
    cat = np.concatenate(feats, axis=0)
    if p.compress.shape[1] != cat.shape[0]:
        raise ParameterError(
            f"compressor expects {p.compress.shape[1]} channels, got {cat.shape[0]}")
    return np.einsum("oc,c...->o...", p.compress, cat).astype(np.float32)


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


def d2sd_fuse(segs, target_dims) -> np.ndarray:
    """Upsample per-scale single-channel maps, average, squash to [0, 1].

    The uniform average over scales is the 1x1x1 fusion convolution; the
    output passes through a logistic.
    """
    segs = [_checked_map(s) for s in segs]
    if len(segs) < 2:
        raise ParameterError("d2sd_fuse needs at least two scales")
    if any(len(s) != 1 for s in segs):
        raise ParameterError("every scale map must be single-channel")
    target = tuple(int(v) for v in target_dims)
    w = 1.0 / len(segs)
    acc = np.zeros((1,) + target)
    for s in segs:
        acc += w * trilinear_resize(s, target)
    return (1.0 / (1.0 + np.exp(-acc))).astype(np.float32)
