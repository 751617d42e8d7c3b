import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import ParameterError, PhantomSpec, Volume3, make_phantom, vesselness, workers
from tubekit.vesselness import (JermanParams, _cut, eig3_symmetric_field, gaussian_smooth,
                                hessian_at_scale, vesselness_multiscale)

from memory import traced
from oracles import (dense_convolve3, gaussian_kernel_1d, jacobi_eigenvalues,
                     vesselness_multiscale_oracle)
from pool import at_workers
from single_voxel import EIG3_MAX_COMPONENT, EigenTriple, eig3_symmetric, jerman_response


def _vol(data, spacing=(1.0, 1.0, 1.0)):
    data = np.asarray(data, dtype=np.float32)
    return Volume3(data.shape, spacing, data)


def _smooth(vol, sigma):
    return gaussian_smooth(vol.data, vol.spacing, sigma)


def _hessian(vol, sigma):
    """The whole volume's Hessian at one scale, smoothed first."""
    return hessian_at_scale(_smooth(vol, sigma), vol.spacing, sigma,
                            slice(0, vol.dims[0]))


# ---------------------------------------------------------------------------
# gaussian smoothing
# ---------------------------------------------------------------------------

def test_smooth_preserves_constants():
    v = _vol(np.full((9, 9, 9), 4.25))
    for sigma in (0.5, 1.0, 2.5):
        out = _smooth(v, sigma)
        assert np.abs(out - 4.25).max() <= 1e-6


def test_smooth_impulse_matches_dense_oracle():
    data = np.zeros((11, 11, 11))
    data[5, 5, 5] = 1.0
    out = _smooth(_vol(data), 1.0)
    k1 = gaussian_kernel_1d(1.0, 1.0)
    kernel3 = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]
    expected = dense_convolve3(data, kernel3)
    assert np.abs(out - expected).max() <= 1e-7


def test_smooth_random_matches_dense_oracle():
    rng = np.random.default_rng(5)
    data = rng.random((7, 8, 9))
    out = _smooth(_vol(data, (1.0, 0.8, 1.3)), 0.7)
    kernel3 = (gaussian_kernel_1d(0.7, 1.0)[:, None, None]
               * gaussian_kernel_1d(0.7, 0.8)[None, :, None]
               * gaussian_kernel_1d(0.7, 1.3)[None, None, :])
    expected = dense_convolve3(data, kernel3)
    assert np.abs(out - expected).max() <= 1e-6


def test_smooth_preserves_mass_of_interior_support():
    rng = np.random.default_rng(6)
    data = np.zeros((24, 24, 24))
    data[9:15, 9:15, 9:15] = rng.random((6, 6, 6))
    out = _smooth(_vol(data), 1.0)
    assert abs(out.sum() - data.sum()) / data.sum() <= 1e-3


@pytest.mark.parametrize("sigma", [1e-200, 5e-324])
def test_tiny_sigma_smooths_with_the_unit_kernel(sigma):
    # The taps off the centre overflow to exp(-inf) = 0, in the square
    # (1e-200) or the division (5e-324), and raise no warning: the kernel
    # is its limit [0, 1, 0], and the smoothing changes no bit.
    data = np.random.default_rng(7).random((6, 7, 8)).astype(np.float32)
    assert _smooth(_vol(data), sigma).tobytes() == data.tobytes()


def test_smooth_rejects_bad_sigma():
    v = _vol(np.zeros((5, 5, 5)))
    with pytest.raises(ParameterError):
        _smooth(v, 0.0)
    with pytest.raises(ParameterError):
        _smooth(v, -1.0)


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------

def test_hessian_of_quadratic_is_analytic():
    n = 17
    c = (n - 1) / 2.0
    y, z = np.meshgrid(np.arange(n) - c, np.arange(n) - c, indexing="ij")
    f = -(y ** 2 + z ** 2)
    data = np.broadcast_to(f[None, :, :], (n, n, n))
    sigma = 0.5
    field = _hessian(_vol(np.array(data)), sigma)
    inner = (slice(4, n - 4),) * 3
    comps = field[inner]
    s2 = sigma * sigma
    assert np.abs(comps[..., 0]).max() <= 1e-3          # xx
    assert np.abs(comps[..., 3] + 2 * s2).max() <= 1e-3  # yy
    assert np.abs(comps[..., 5] + 2 * s2).max() <= 1e-3  # zz
    for off in (1, 2, 4):                                # xy, xz, yz
        assert np.abs(comps[..., off]).max() <= 1e-3


def test_hessian_constant_and_ramp_vanish():
    const = _hessian(_vol(np.full((12, 12, 12), 3.0)), 1.0)
    assert np.abs(const).max() <= 1e-5
    x = np.arange(16, dtype=np.float64)
    ramp = np.broadcast_to(x[:, None, None], (16, 16, 16))
    field = _hessian(_vol(np.array(ramp)), 1.0)
    margin = 4  # replicate padding bends the ramp near the border
    inner = (slice(margin, 16 - margin),) * 3
    assert np.abs(field[inner]).max() <= 1e-5


def test_hessian_rejects_small_volumes():
    with pytest.raises(ParameterError):
        _hessian(_vol(np.zeros((4, 8, 8))), 1.0)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eig_diagonal_and_zero():
    t = eig3_symmetric([0.0, 0.0, 0.0, -2.0, 0.0, -2.0])
    assert abs(t.l1) <= 1e-6
    assert abs(t.l2 + 2.0) <= 1e-6 and abs(t.l3 + 2.0) <= 1e-6
    z = eig3_symmetric([0.0] * 6)
    assert (z.l1, z.l2, z.l3) == (0.0, 0.0, 0.0)


def test_eig_magnitude_ordering_and_trace():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.standard_normal(6) * rng.choice([0.1, 1.0, 10.0])
        t = eig3_symmetric(c)
        assert abs(t.l1) <= abs(t.l2) + 1e-12 <= abs(t.l3) + 2e-12
        trace = c[0] + c[3] + c[5]
        assert abs((t.l1 + t.l2 + t.l3) - trace) <= 1e-4 * (1.0 + abs(trace))


def test_eig_matches_jacobi_oracle_1000():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        c = rng.standard_normal(6)
        mat = np.array([[c[0], c[1], c[2]],
                        [c[1], c[3], c[4]],
                        [c[2], c[4], c[5]]])
        expected = jacobi_eigenvalues(mat)
        t = eig3_symmetric(c)
        got = np.array([t.l1, t.l2, t.l3])
        assert np.abs(got - expected).max() <= 1e-6


def test_eig_charpoly_residual_bound():
    rng = np.random.default_rng(9)
    for _ in range(300):
        c = rng.standard_normal(6) * 3.0
        mat = np.array([[c[0], c[1], c[2]],
                        [c[1], c[3], c[4]],
                        [c[2], c[4], c[5]]])
        norm = np.linalg.norm(mat)
        t = eig3_symmetric(c)
        for lam in (t.l1, t.l2, t.l3):
            residual = abs(np.linalg.det(mat - lam * np.eye(3)))
            assert residual <= 1e-4 * (1.0 + norm)


def test_eig_rejects_non_finite():
    with pytest.raises(ParameterError):
        eig3_symmetric([np.nan, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("comps", [[1e155, 0, 0, 5e154, 0, 0],
                                   [0, -2e150, 0, 0, 0, 0],
                                   [0, 0, 0, 0, 0, np.inf]])
def test_eig_rejects_components_beyond_the_limit(comps):
    # Squaring 1e155 overflows: the solve returned (inf, nan, -inf).
    with pytest.raises(ParameterError):
        eig3_symmetric(comps)


def test_eig_is_finite_at_the_limit():
    lim = EIG3_MAX_COMPONENT
    with np.errstate(all="raise"):
        diag = eig3_symmetric([lim, 0, 0, -lim / 2, 0, lim / 4])
        full = eig3_symmetric([lim] * 6)  # rank one: eigenvalues 3*lim, 0, 0
    assert np.allclose([diag.l1, diag.l2, diag.l3], [lim / 4, -lim / 2, lim], rtol=1e-12)
    assert np.allclose([full.l1, full.l2, full.l3], [0.0, 0.0, 3 * lim], rtol=1e-12,
                       atol=1e-12 * lim)


# ---------------------------------------------------------------------------
# jerman response
# ---------------------------------------------------------------------------

def test_jerman_zero_branch():
    # after bright adjustment these have l2 <= 0
    assert jerman_response(EigenTriple(0.0, 1.0, 2.0), 2.0, 0.5, "bright") == 0.0
    assert jerman_response(EigenTriple(0.0, 0.0, -2.0), 2.0, 0.5, "bright") == 0.0
    # lp <= 0: negative l3 after adjustment
    assert jerman_response(EigenTriple(0.0, -1.0, 2.0), 2.0, 0.5, "bright") == 0.0


def test_jerman_one_branch():
    # l2 >= lp/2 > 0 (bright: eigenvalues negated)
    assert jerman_response(EigenTriple(0.0, -3.0, -3.0), 3.0, 0.5, "bright") == 1.0
    assert jerman_response(EigenTriple(0.0, 2.0, 3.0), 3.0, 0.5, "dark") == 1.0


def test_jerman_middle_branch_exact():
    got = jerman_response(EigenTriple(0.0, -1.0, -3.0), 3.0, 0.5, "bright")
    assert abs(got - 0.84375) <= 1e-9
    got = jerman_response(EigenTriple(0.0, 1.0, 3.0), 3.0, 0.5, "dark")
    assert abs(got - 0.84375) <= 1e-9


def test_jerman_lp_regularization_floor():
    # 0 < l3 <= tau*max: lp is replaced by the tau floor
    tau, l3max = 0.5, 10.0
    got = jerman_response(EigenTriple(0.0, 1.0, 2.0), l3max, tau, "dark")
    lp = tau * l3max  # 5.0
    expected = 1.0 ** 2 * (lp - 1.0) * (3.0 / (lp + 1.0)) ** 3
    assert abs(got - expected) <= 1e-12


def test_jerman_validates_inputs():
    with pytest.raises(ParameterError):
        jerman_response(EigenTriple(0, 1, 2), 2.0, 1.5, "bright")
    with pytest.raises(ParameterError):
        jerman_response(EigenTriple(0, 1, 2), -1.0, 0.5, "bright")
    with pytest.raises(ParameterError):
        JermanParams(scales=(2.0, 1.0))
    with pytest.raises(ParameterError):
        JermanParams(scales=())


# ---------------------------------------------------------------------------
# multiscale response
# ---------------------------------------------------------------------------

def test_multiscale_constant_volume_is_zero():
    v = _vol(np.full((16, 16, 16), 2.0))
    out = vesselness_multiscale(v, JermanParams(scales=(1.0, 2.0)))
    assert np.abs(out.data).max() == 0.0


def test_multiscale_range_on_random_volumes():
    rng = np.random.default_rng(12)
    for _ in range(3):
        v = _vol(rng.random((12, 12, 12)))
        out = vesselness_multiscale(v, JermanParams(scales=(1.0, 1.5)))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_multiscale_cylinder_contrast():
    image, label = make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (48, 48, 48))
    out = vesselness_multiscale(image, JermanParams(scales=(1.0, 2.0, 3.0)))
    c = (48 - 1) / 2.0
    xx, yy = np.meshgrid(np.arange(48) - c, np.arange(48) - c, indexing="ij")
    axis_dist = np.sqrt(xx ** 2 + yy ** 2)
    centerline = out.data[axis_dist <= 1.0, :].mean()
    far = out.data[axis_dist >= 2.0 + 5.0, :].mean()
    assert centerline >= 10.0 * max(far, 1e-12)


def test_multiscale_rotation_covariance():
    image, _ = make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (32, 32, 32))
    params = JermanParams(scales=(1.0, 2.0))
    resp_z = vesselness_multiscale(image, params)
    turned = _vol(np.ascontiguousarray(np.transpose(image.data, (2, 1, 0))))
    resp_x = vesselness_multiscale(turned, params)
    back = np.transpose(resp_x.data, (2, 1, 0))
    assert np.abs(back - resp_z.data).mean() <= 1e-3


def _peak_volumes(image, threads=2,
                  run=lambda image: vesselness_multiscale(image, JermanParams())):
    """tracemalloc's peak over ``run(image)``, one default vesselness run
    unless given, at two workers unless given, in float64 volumes.  Two
    workers, on any host, keep two slabs in flight."""
    with at_workers(threads):
        return traced(run, image)[2] / (np.prod(image.dims) * 8)


def test_multiscale_peak_memory_is_bounded():
    # Slabs keep the peak to a few float64 volume fields: the whole-volume
    # Hessian and eigen-solve peaked at about 22 of them, and whole-volume
    # signed l2/l3 fields beside two float64 smoothing fields at 6.5.  At
    # 64^3 a slab of 2^16 voxels is a quarter of the volume, and two
    # workers hold two.
    image, _ = make_phantom(PhantomSpec("helix", 2.0, noise_sigma=0.3, seed=1), (64, 64, 64))
    assert _peak_volumes(image) <= 5.5


@pytest.mark.parametrize("threads", [1, 2])
def test_smoothing_peak_memory_is_under_one_volume(threads):
    # Each x-block is smoothed on its own into the float32 result, half a
    # float64 volume; a whole-volume float64 field beside it read 1.53.
    image = _vol(np.random.default_rng(5).random((128, 128, 128), dtype=np.float32))
    assert _peak_volumes(image, threads, lambda image: _smooth(image, 3.0)) <= 1.0


def test_multiscale_peak_memory_when_most_voxels_respond():
    # A bright ridge along z: about 88% of its voxels have l2, l3 > 0, so
    # nearly every eigenvalue is kept.  The kept ones must still cost less
    # than the whole-volume l2/l3 fields did, which peaked at 4.5 volumes.
    c = (96 - 1) / 2.0
    x, y = np.meshgrid(np.arange(96) - c, np.arange(96) - c, indexing="ij")
    ridge = np.repeat(-(x ** 2 + y ** 2)[:, :, None], 96, axis=2)
    assert _peak_volumes(_vol(ridge)) <= 4.0


def test_hessian_slab_peak_memory_is_bounded():
    # A 4-plane slab of 128^2 planes: the float64 buffer with its rim
    # (1.55 per slab voxel), one float64 term (1.03) and the float32
    # components (3.0).  A float64 2f, a gathered copy of the slab and a
    # bool array of every component's finiteness made it read 7.4.
    image, _ = make_phantom(PhantomSpec("helix", 2.0, noise_sigma=0.3, seed=1), (128,) * 3)
    smooth = _smooth(image, 1.5)
    peak = _peak_volumes(image, 1,
                         lambda image: hessian_at_scale(smooth, image.spacing, 1.5, slice(64, 68)))
    assert peak * 128 / 4 <= 6.0  # in float64 per slab voxel


def test_multiscale_makes_at_most_one_where_per_slab(monkeypatch):
    # np.where on a random mask is the slowest call of a slab pass.  The
    # response selects its branches with one, and the eigen-solve makes
    # none unless its slab holds a degenerate matrix, which noise does not.
    monkeypatch.setattr(workers, "SLAB_VOXELS", 4 * 32 * 32)  # 4-plane slabs
    image, _ = make_phantom(PhantomSpec("helix", 2.0, noise_sigma=0.3, seed=1), (32, 32, 32))
    calls, where = [], np.where
    monkeypatch.setattr(np, "where", lambda *args: calls.append(args) or where(*args))
    params = JermanParams()
    with at_workers(2):
        vesselness_multiscale(image, params)
    assert 0 < len(calls) <= (32 // 4) * len(params.scales)


def test_multiscale_monotone_in_scale_coverage():
    rng = np.random.default_rng(21)
    v = _vol(rng.random((14, 14, 14)))
    small = vesselness_multiscale(v, JermanParams(scales=(1.0, 2.0)))
    full = vesselness_multiscale(v, JermanParams(scales=(1.0, 2.0, 3.0)))
    assert (full.data >= small.data - 1e-7).all()


# ---------------------------------------------------------------------------
# the candidate cut and the second pass
# ---------------------------------------------------------------------------

def _assert_cut_holds(comps):
    """Every matrix of comps (n, 6) whose computed sign*l2 and sign*l3 are
    both > 0 passes the cut, and every bound is at least sign*l3."""
    comps = np.asarray(comps, dtype=np.float32)
    _, l2, l3 = eig3_symmetric_field(comps)
    for sign in (-1.0, 1.0):
        keep, bound = _cut(comps.T, sign)
        respond = (sign * l2 > 0.0) & (sign * l3 > 0.0)
        assert not (respond & ~keep).any(), comps[respond & ~keep]
        assert (bound >= sign * l3).all(), comps[bound < sign * l3]


# Spectra at and near the cut's edge: (-a, a, a) meets sign*tr = |H|_F/sqrt(3).
_SPECTRA = {"boundary": (-1.0, 1.0, 1.0), "scalar": (1.0, 1.0, 1.0),
            "double": (0.0, 1.0, 1.0), "near_double": (0.3, 1.0, 1.0 + 1e-7),
            "saddle": (1.0, -0.9, 0.2), "rank_one": (0.0, 0.0, 1.0),  # l3 = |H|_F
            "zero": (0.0, 0.0, 0.0)}


def _matrices(kind, scale, seed, n=64):
    """n float32 Hessians (n, 6) of one family, scaled by ``scale``."""
    rng = np.random.default_rng(seed)
    if kind == "fallback":  # q*I plus off-diagonals inside the q*I fallback's tolerance
        c = np.zeros((n, 6))
        c[:, [0, 3, 5]] = rng.choice([0.0, 1.0, -1.0], (n, 3)) * scale
        c[:, [1, 2, 4]] = rng.uniform(-3e-13, 3e-13, (n, 3))
        return c.astype(np.float32)
    lam = np.array(_SPECTRA[kind]) * rng.choice([-1.0, 1.0], (n, 1))
    lam *= 1.0 + 1e-7 * rng.standard_normal((n, 3)) * rng.integers(0, 2, (n, 1))
    rot, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    rot[rng.random(n) < 0.25] = np.eye(3)  # diagonal matrices, the fallback's form
    h = np.einsum("nij,nj,nkj->nik", rot, lam * scale, rot)
    return h[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]].astype(np.float32)


@given(st.sampled_from(sorted(_SPECTRA) + ["fallback"]),
       st.sampled_from([1e-40, 1e-14, 1e-6, 1.0, 1e6, 1e30, 1e38]),
       st.integers(0, 2 ** 32 - 1))
def test_cut_keeps_every_responding_voxel(kind, scale, seed):
    # 1e38 puts components at float32's finite limit, 3.4e38; 1e-14 with
    # the fallback's off-diagonals gives matrices it reads as q*I.
    _assert_cut_holds(_matrices(kind, scale, seed))


_F32 = st.one_of(st.sampled_from([3.4028235e38, -3.4028235e38, 1e-45, -1e-45, 0.0, -0.0, 1.0]),
                 st.floats(width=32, allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(*[_F32] * 6), min_size=1, max_size=16))
def test_cut_keeps_every_responding_voxel_of_any_float32_matrix(rows):
    _assert_cut_holds(rows)


def test_cut_of_the_zero_matrix_rules_it_out_with_bound_zero():
    keep, bound = _cut(np.zeros((6, 4), dtype=np.float32), -1.0)
    assert not keep.any() and (bound == 0.0).all()


def _solved(monkeypatch):
    """Per scale, the voxels each eigen-solve gets; hessian_at_scale calls."""
    solved, calls = [], []
    smooth, hessian, eig = (vesselness.gaussian_smooth, vesselness.hessian_at_scale,
                            vesselness.eig3_symmetric_field)

    def smooth_then_count(*args):
        solved.append([])
        return smooth(*args)

    def eig_counted(comps):
        solved[-1].append(len(comps))
        return eig(comps)

    monkeypatch.setattr(vesselness, "gaussian_smooth", smooth_then_count)
    monkeypatch.setattr(vesselness, "hessian_at_scale",
                        lambda *args: calls.append(args[-1]) or hessian(*args))
    monkeypatch.setattr(vesselness, "eig3_symmetric_field", eig_counted)
    return solved, calls


def test_second_pass_finds_lambda3_max_at_a_ruled_out_voxel(monkeypatch):
    # A dark blob under bright polarity: around it the Hessian has one
    # strong bright direction and two dark ones, so sign*tr < 0 rules the
    # voxels out while their sign*l3 is the volume's largest.  A faint
    # bright bar responds, and its response reads max(l3) through tau.
    n = 24
    x, y, z = np.meshgrid(*[np.arange(n) - 11.5] * 3, indexing="ij")
    data = -8.0 * np.exp(-(x ** 2 + y ** 2 + z ** 2) / 8.0)
    data += 0.2 * np.exp(-((x - 6) ** 2 + (y - 6) ** 2) / 2.0)
    vol = _vol(data)
    params = JermanParams(scales=(1.0, 2.0))
    for sigma in params.scales:
        h = np.moveaxis(_hessian(vol, sigma), -1, 0).reshape(6, -1)
        keep, _ = _cut(h, -1.0)
        l3 = -eig3_symmetric_field(h.T)[2]
        assert l3[~keep].max() > max(l3[keep].max(), 0.0)
    solved, calls = _solved(monkeypatch)
    got = vesselness_multiscale(vol, params).data
    assert np.array_equal(got.view(np.uint32),
                          vesselness_multiscale_oracle(vol, params).view(np.uint32))
    assert got.max() > 0.0
    slabs = len(workers.slabs(n, n * n))
    assert all(len(s) > slabs for s in solved)  # each scale ran the second pass
    assert len(calls) > slabs * len(params.scales)


def test_constant_volume_runs_no_second_pass(monkeypatch):
    vol = _vol(np.full((20, 16, 12), 2.5))
    solved, calls = _solved(monkeypatch)
    params = JermanParams()
    assert not vesselness_multiscale(vol, params).data.any()
    slabs = len(workers.slabs(20, 16 * 12))
    assert solved == [[0] * slabs] * len(params.scales)
    assert len(calls) == slabs * len(params.scales)


def test_cut_solves_at_most_four_tenths_of_the_noisy_helix(monkeypatch):
    # About a third of this helix's voxels pass the cut at each scale; the
    # whole-volume solve took them all.
    image, _ = make_phantom(PhantomSpec("helix", 2.0, noise_sigma=0.3, seed=1), (64, 64, 64))
    solved, _ = _solved(monkeypatch)
    vesselness_multiscale(image, JermanParams())
    assert len(solved) == 4
    for per_scale in solved:
        assert 0 < sum(per_scale) <= 0.4 * 64 ** 3
