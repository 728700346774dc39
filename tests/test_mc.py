"""Sampler, model components, pairing-sum oracles, and scaling fits."""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import unit_response_covariance
from tfrenorm import mc
from tfrenorm.cli import main
from tfrenorm.constants import CovarianceSpec, counterterm_table, covariance_spec, mollifier_spec
from tfrenorm.errors import ConfigError, NumericError
from tfrenorm.kernel import SpectralField, SpectralGrid, _inverse, load_field


def small_sampler(seed=1, alpha=0.55, tau=1e-14, sizes=(32, 128)):
    grid = SpectralGrid(d=1, sizes=sizes, boxes=(1.0, 1.0))
    return mc.NoiseSampler(
        grid=grid,
        spec=covariance_spec(alpha),
        moll=mollifier_spec("semigroup", tau),
        seed=seed,
    )


def test_sampler_rejects_mismatched_m0():
    grid = SpectralGrid(d=1, sizes=(8, 16), boxes=(1.0, 1.0))
    with pytest.raises(ConfigError):
        mc.NoiseSampler(
            grid=grid,
            spec=covariance_spec(0.55, m0=1.3),
            moll=mollifier_spec("semigroup", 1e-10, m0=1.0),
            seed=0,
        )


def _scalar_paper_covariance(alpha):
    """The paper's FC at m0 = 1 through math.pow: right on floats, no meshes."""
    power = -(2.0 * alpha - 1.0) / 8.0
    return CovarianceSpec(alpha, 1.0, lambda k0, k1: math.pow(
        (2 * math.pi * k0) ** 2 + (2 * math.pi * k1) ** 8, power))


@pytest.mark.parametrize("evaluator", [
    None,  # the scalar-only copy of the paper's FC
    lambda k0, k1: 1.0,  # one number for the whole mesh
    lambda k0, k1: np.ones(3),  # the wrong shape
    lambda k0, k1: np.ones_like(k0),  # the time axis alone
])
def test_sampler_refuses_evaluators_that_do_not_map_meshes(evaluator):
    """The tables probe the covariance at float frequencies, the sampler on
    a mesh: an evaluator that cannot map the mesh is refused there."""
    spec = _scalar_paper_covariance(0.55)
    moll = mollifier_spec("semigroup", 1e-14)
    if evaluator is None:
        assert counterterm_table(spec, moll) == counterterm_table(covariance_spec(0.55), moll)
    else:
        spec = CovarianceSpec(0.55, 1.0, evaluator)
    grid = SpectralGrid(d=1, sizes=(8, 16), boxes=(1.0, 1.0))
    sampler = mc.NoiseSampler(grid=grid, spec=spec, moll=moll, seed=0)
    with pytest.raises(ConfigError, match="mesh"):
        sampler.density()


def test_equal_time_density_refuses_evaluators_that_do_not_map_meshes():
    """The line integral evaluates the covariance on its own k0 node arrays,
    so a math.pow copy of the paper's FC is refused there as in density()."""
    grid = SpectralGrid(d=1, sizes=(8, 16), boxes=(1.0, 1.0))
    sampler = mc.NoiseSampler(grid=grid, spec=_scalar_paper_covariance(0.55),
                              moll=mollifier_spec("semigroup", 1e-14), seed=0)
    with pytest.raises(ConfigError, match="mesh"):
        mc.equal_time_density(sampler)


def test_density_finite_zero_mode_dropped():
    s = small_sampler()
    ff = s.density()
    assert ff[0, 0] == 0.0
    assert np.all(np.isfinite(ff))
    assert np.all(ff >= 0)
    # cached and read-only
    assert s.density() is ff
    with pytest.raises(ValueError):
        ff[1, 1] = 0.0


def test_sample_noise_real_reproducible():
    s = small_sampler(seed=42)
    a = mc.sample_noise(s, 0)[0]
    b = mc.sample_noise(s, 0)[0]
    assert np.array_equal(a.values, b.values)
    c = mc.sample_noise(s, 1)[0]
    assert not np.allclose(a.values, c.values)
    other = mc.sample_noise(small_sampler(seed=43), 0)[0]
    assert not np.allclose(a.values, other.values)
    # stored real, spectrum Hermitian, zero mode exactly dropped
    assert np.all(a.values.imag == 0.0)
    hat = a.to_fourier().values
    scale = np.abs(hat).max()
    assert abs(hat[0, 0]) <= 1e-12 * scale


def test_rekeyed_draws_equal_a_fresh_generator_per_key():
    # (5, 7) leaves the Philox buffer part used before the next key
    normals = mc._keyed_normals()
    keys = [0, 1, 0x5C, mc._sample_key(7, 3 << 8), 2**63, 2**64 - 1, 1]
    for key in keys:
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal((5, 7))
        assert np.array_equal(normals(key, (5, 7)), want)
    # so sample_noise is the fresh-generator draw on the density's support,
    # bit for bit: pairs (a, b) as a + ib on the live columns closed under
    # k -> -k, each self-conjugate time plane plus its conjugate reflection,
    # times sqrt(vol FF / 2) off those planes and sqrt(vol FF / 4) on them
    sampler = small_sampler(seed=7)
    grid = sampler.grid
    ff = sampler.density()
    live = np.any(ff, axis=0)
    cols = np.flatnonzero(live | np.roll(live[::-1], 1))
    assert 0 < cols.size < grid.sizes[1]
    fresh = np.random.Generator(np.random.Philox(key=mc._sample_key(7, 3 << 8)))
    pairs = fresh.standard_normal((ff.shape[0], cols.size, 2))
    hat = np.zeros(ff.shape, dtype=complex)
    hat[:, cols] = pairs[..., 0] + 1j * pairs[..., 1]
    for plane in (0, -1):
        hat[plane] = hat[plane] + np.conj(np.roll(hat[plane][::-1], 1))
    weight = np.full((ff.shape[0], 1), 0.5)
    weight[[0, -1]] = 0.25
    hat *= np.sqrt(grid.volume * ff * weight)
    want = SpectralField(grid, hat, "fourier").to_physical().values
    assert np.array_equal(mc.sample_noise(sampler, 3)[0].values, want)


@pytest.mark.parametrize("sizes, alpha, tau", [
    # the spatial-Nyquist column and the time-Nyquist plane carry mass
    ((4, 8), 0.55, 1e-12),
    # 9 of the 64 spatial columns are live
    ((8, 64), 0.55, 1e-9),
    ((4, 6, 8), 0.55, 1e-12),
])
def test_support_draw_has_the_law_of_shaped_white_noise(monkeypatch, sizes, alpha, tau):
    # both draws are linear Gaussian maps, so their laws are equal iff the
    # covariances of (Re, Im) of the spectra are: physical white noise,
    # transformed and shaped, against the support draw fed unit normals
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(alpha),
                              moll=mollifier_spec("semigroup", tau), seed=0)
    scale = np.sqrt(sampler.density() / grid.cell)
    want = unit_response_covariance(
        lambda white: SpectralField(grid, white, "physical").to_fourier().values * scale,
        grid.sizes)
    draw = {}

    def unit_normals():
        def normals(key, shape):
            draw["shape"] = shape
            return draw.get("unit", np.zeros(shape))
        return normals

    monkeypatch.setattr(mc, "_keyed_normals", unit_normals)
    spectrum = mc._NoiseSource(sampler)
    spectrum(0, 0)

    def response(unit):
        draw["unit"] = unit
        return spectrum(0, 0)

    got = unit_response_covariance(response, draw["shape"])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("tau, live", [
    (1e-4, [0, 1, 31]),  # one column pair |k1| = 1 besides k1 = 0
    (1e-30, list(range(32))),  # every column
])
def test_checks_at_the_edges_of_the_support(tau, live):
    sampler = small_sampler(seed=11, tau=tau, sizes=(8, 32))
    assert np.flatnonzero(np.any(sampler.density(), axis=0)).tolist() == live
    assert mc.covariance_check(sampler, n_samples=128).worst_z() < 3.5
    assert mc.pi_f0_second_moment_check(sampler, n_samples=128).worst_z() < 3.5


@pytest.mark.parametrize("sizes, tau", [
    ((64, 256), 1e-14),
    ((4, 8), 1e-12),  # the spatial-Nyquist column is live
    ((8, 32), 1e-4),  # only k1 = 0, +-1 are live
    ((8, 32), 1e-30),  # every column is live
    ((4, 6, 8), 1e-12),
    ((4, 8, 16), 1e-12),
])
def test_support_inverse_equals_the_full_inverse(sizes, tau):
    # random blocks are not conjugate symmetric on the self-conjugate planes,
    # so the inverse must take the real part there exactly as irfftn does
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(0.55),
                              moll=mollifier_spec("semigroup", tau), seed=2)
    source = mc._NoiseSource(sampler)
    rng = np.random.default_rng(8)
    blocks = [source.block(0, 0)]
    blocks += [rng.standard_normal(source.density.shape)
               + 1j * rng.standard_normal(source.density.shape) for _ in range(3)]
    for block in blocks:
        hat = np.zeros(grid.spectrum_shape, dtype=complex)
        hat.reshape(hat.shape[0], -1)[:, source.cols] = block
        want = _inverse(grid, hat)
        got = source.inverse(block)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("sizes, tau", [
    ((64, 256), 1e-14),
    ((8, 32), 1e-4),
    ((8, 64, 64), 1e-12),
    ((4, 8, 16), 1e-12),
])
def test_support_inverse_against_the_explicit_sum(sizes, tau):
    # the reference is the Riemann inverse (1/vol) Re sum_k c(k0) hat(k)
    # e^{2 pi i k x} over the columns of S, at the grid's coordinates, with
    # each k read from the grid: no transform and no lattice index
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(0.55),
                              moll=mollifier_spec("semigroup", tau), seed=2)
    source = mc._NoiseSource(sampler)
    lattice = source.grid
    rows = np.arange(grid.spectrum_shape[0])
    c = np.where((rows == 0) | (rows == rows[-1]), 1.0, 2.0)
    time = c[:, None] * np.exp(2j * np.pi * np.outer(rows / grid.boxes[0], lattice.coordinates(0)))
    space = np.ones((source.cols.size,) + (1,) * grid.d)
    for axis, index in enumerate(np.unravel_index(source.cols, grid.sizes[1:]), start=1):
        k = grid.frequencies(axis)[index]
        shape = [1] * grid.d
        shape[axis - 1] = -1
        space = space * np.exp(2j * np.pi * np.outer(k, lattice.coordinates(axis))
                               ).reshape(k.size, *shape)
    space = space.reshape(source.cols.size, -1)
    rng = np.random.default_rng(8)
    blocks = [source.block(0, 0)]
    blocks += [rng.standard_normal(source.density.shape)
               + 1j * rng.standard_normal(source.density.shape) for _ in range(3)]
    for block in blocks:
        want = (time.T @ block @ space).real.reshape(lattice.sizes) / grid.volume
        got = source.inverse(block)
        assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))


def test_sample_noise_at_d2_is_the_inverse_of_the_c_ordered_scatter():
    # scatter writes the draw into time-contiguous zeros at the Fortran-order
    # flat columns of S; the physical values are, bit for bit, those of the
    # draw at the C-order flat columns of a C-ordered zero half spectrum
    grid = SpectralGrid(d=2, sizes=(8, 24, 40), boxes=(1.0, 1.0, 1.0))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(0.55),
                              moll=mollifier_spec("semigroup", 1e-11), seed=3)
    source = mc._NoiseSource(sampler)
    assert 0 < source.cols.size < 24 * 40
    for index in range(2):
        for comp, field in enumerate(mc.sample_noise(sampler, index)):
            hat = np.zeros(grid.spectrum_shape, dtype=complex)
            hat.reshape(hat.shape[0], -1)[:, source.cols] = source.block(index, comp)
            assert np.array_equal(field.values, _inverse(grid, hat))


def test_support_inverse_peak_memory():
    # measured: 1.14 half spectra at 64 x 256 (2.01 when scatter's C-ordered
    # half spectrum needed a time-contiguous working copy beside it): the
    # scattered half spectrum is the inverse's working copy, and the time
    # pass copies one block, an eighth of the columns
    grid = SpectralGrid(d=1, sizes=(64, 256), boxes=(1.0, 1.0))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(0.75),
                              moll=mollifier_spec("semigroup", 1e-14), seed=1)
    source = mc._NoiseSource(sampler)
    block = source.block(1, 0)
    source.inverse(block)
    tracemalloc.start()
    try:
        source.inverse(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * math.prod(grid.spectrum_shape) * 16


def moment_dump_sampler():
    grid = SpectralGrid(d=1, sizes=(64, 256), boxes=(1.0, 1.0))
    return mc.NoiseSampler(grid=grid, spec=covariance_spec(0.75),
                           moll=mollifier_spec("semigroup", 1e-14), seed=1)


def test_moment_dump_bytes_equal_the_formula_in_new_arrays(tmp_path, monkeypatch):
    # the dump forms 2 (C(0) - C) in place in the inverse's output; the
    # bytes equal those of the expression formed in new arrays
    covariances = []
    inverse = mc._NoiseSource.inverse

    def kept(source, block):
        out = inverse(source, block)
        covariances.append(out.copy())
        return out

    monkeypatch.setattr(mc._NoiseSource, "inverse", kept)
    path = tmp_path / "moment.field"
    mc.pi_f0_second_moment_check(moment_dump_sampler(), n_samples=8, dump_path=path)
    (covariance,) = covariances
    want = 2.0 * (covariance[0, 0] - covariance)
    assert path.read_bytes() == np.ascontiguousarray(want, dtype="<f8").tobytes()


def test_moment_dump_peak_memory(tmp_path, monkeypatch):
    # measured from the support inverse to the end of the write: 1.14 half
    # spectra at 64 x 256, the inverse's own peak, as dump_field writes C
    # order a time row at a time (2.01 with a whole C-order copy, 2.98 with
    # 2 (C(0) - C) also formed in two new arrays)
    sampler = moment_dump_sampler()
    inverse, dump = mc._NoiseSource.inverse, mc.dump_field
    peaks = []

    def traced_inverse(source, block):
        tracemalloc.start()
        return inverse(source, block)

    def traced_dump(field, path):
        try:
            dump(field, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(mc._NoiseSource, "inverse", traced_inverse)
    monkeypatch.setattr(mc, "dump_field", traced_dump)
    mc.pi_f0_second_moment_check(sampler, n_samples=8, dump_path=tmp_path / "moment.field")
    assert peaks[0] <= 1.2 * math.prod(sampler.grid.spectrum_shape) * 16


def test_moment_check_reads_the_same_with_and_without_a_dump(tmp_path):
    # the dump is the mean over draws and base points y of
    # (pi_f0(y + r) - pi_f0(y))^2 at every cell r, which is
    # 2 (mean v^2 - C(r)) with C the circular autocorrelation of v; at
    # d = 2 the check reads |v_hat|^2 with its cross terms
    def increments(v):
        corr = np.fft.ifftn(np.abs(np.fft.fftn(v)) ** 2).real / v.size
        return 2.0 * (np.mean(v ** 2) - corr)

    grid = SpectralGrid(d=2, sizes=(4, 8, 16), boxes=(1.0, 1.0, 1.0))
    plane = mc.NoiseSampler(grid=grid, spec=covariance_spec(0.6),
                            moll=mollifier_spec("semigroup", 1e-14), seed=2)
    for s in (small_sampler(seed=6), plane):
        path = tmp_path / f"moment{s.grid.d}.field"
        plain = mc.pi_f0_second_moment_check(s, n_samples=16)
        dumped = mc.pi_f0_second_moment_check(s, n_samples=16, dump_path=path)
        for key in ("estimates", "standard_errors", "oracles", "z_scores"):
            assert np.array_equal(getattr(plain, key), getattr(dumped, key)), key
        field = load_field(path).values
        assert field[(0,) * (s.grid.d + 1)] == 0.0
        want = np.mean([increments(mc.pi_f0(mc.sample_noise(s, i), None).values)
                        for i in range(16)], axis=0)
        assert np.max(np.abs(field - want)) <= 1e-13 * np.max(want)
        at = tuple(np.transpose(plain.points))
        assert np.max(np.abs(field[at] - plain.estimates)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("check", [
    lambda s: mc.bphz_triviality_check(s, [], component="f0", n_samples=8),
    lambda s: mc.bphz_triviality_check(s, [], component="f0f1", n_samples=8),
    lambda s: mc.covariance_check(s, lags=[], n_samples=8),
], ids=["bphz_f0", "bphz_f0f1", "covariance"])
def test_empty_point_lists_are_config_errors(check):
    with pytest.raises(ConfigError, match="at least one"):
        check(small_sampler(sizes=(8, 32)))


@pytest.mark.parametrize("check", [
    lambda s: mc.pi_f0_second_moment_check(s, x=(0, 0), n_samples=8),
    lambda s: mc.bphz_triviality_check(s, [1e-6], component="f0f1", x=(1, 2), n_samples=8),
], ids=["moment", "bphz_f0f1"])
def test_averaged_checks_refuse_a_base_point(check):
    with pytest.raises(ConfigError, match="averages over every base point"):
        check(small_sampler(sizes=(8, 32)))


def test_bphz_f0f1_refuses_a_t_it_cannot_test(monkeypatch):
    # at t = 0, 1 - psi_t is zero on the whole support: every draw would
    # read 0 against the oracle 0, a row that cannot fail.  f0 at t = 0
    # reads xi(x) and stays allowed
    sampler = small_sampler(sizes=(8, 32))
    rep = mc.bphz_triviality_check(sampler, [0.0], component="f0", n_samples=8)
    assert rep.estimates[0] != 0.0
    drawn = []
    monkeypatch.setattr(mc, "_keyed_normals", lambda: lambda key, shape: drawn.append(shape))
    with pytest.raises(NumericError, match="1 - psi_t is zero on the whole support"):
        mc.bphz_triviality_check(sampler, [1e-6, 0.0], component="f0f1", n_samples=8)
    assert drawn == []


def test_density_underflow_is_raised_before_any_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(mc, "_keyed_normals", lambda: lambda key, shape: drawn.append(shape))
    sampler = small_sampler(tau=1e300, sizes=(8, 32))
    for check in (mc.covariance_check, mc.pi_f0_second_moment_check):
        with pytest.raises(NumericError, match="underflows"):
            check(sampler, n_samples=8)
    assert drawn == []


def test_mode_variance_matches_density():
    s = small_sampler(seed=5)
    probe = (2, 5)
    want = s.grid.volume * s.density()[probe]
    n = 1500
    vals = np.empty(n)
    for i in range(n):
        vals[i] = abs(mc.sample_noise(s, i)[0].to_fourier().values[probe]) ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - want) < 3.0 * se


def test_covariance_check_against_pairing_sum():
    rep = mc.covariance_check(small_sampler(seed=3), n_samples=192)
    assert rep.samples == 192
    assert len(rep.points) >= 15
    assert rep.worst_z() < 3.5


def test_pi_f0_zero_at_base_and_odd():
    s = small_sampler(seed=9)
    noise = mc.sample_noise(s, 4)
    x = (3, 17)
    p = mc.pi_f0(noise, x)
    assert p.values[x] == 0.0
    flipped = [SpectralField(s.grid, -c.values, "physical") for c in noise]
    assert np.array_equal(mc.pi_f0(flipped, x).values, -p.values)


def test_pi_f0_second_moment_oracle(tmp_path):
    s = small_sampler(seed=5)
    path = tmp_path / "moment.field"
    rep = mc.pi_f0_second_moment_check(s, n_samples=192, dump_path=path)
    assert rep.worst_z() < 3.5
    dumped = load_field(path)
    assert dumped.values.shape == s.grid.sizes
    # the dumped moment field vanishes at separation 0 by construction
    assert abs(dumped.values[0, 0]) == 0.0


def test_pi_f0f1_zero_at_base_and_even():
    s = small_sampler(seed=9)
    noise = mc.sample_noise(s, 4)
    x = (3, 17)
    q = mc.pi_f0f1(noise, x)
    assert q.values[x] == 0.0
    flipped = [SpectralField(s.grid, -c.values, "physical") for c in noise]
    assert np.array_equal(mc.pi_f0f1(flipped, x).values, q.values)


def test_stationarity_under_lattice_shift():
    s = small_sampler(seed=9, sizes=(16, 64))
    noise = mc.sample_noise(s, 0)
    x, shift = (3, 11), (5, 23)
    shifted = [
        SpectralField(s.grid, np.roll(c.values, shift, axis=(0, 1)), "physical")
        for c in noise
    ]
    x_sh = tuple((a + b) % n for a, b, n in zip(x, shift, s.grid.sizes))
    for op in (mc.pi_f0, mc.pi_f0f1):
        lhs = op(shifted, x_sh).values
        rhs = np.roll(op(noise, x).values, shift, axis=(0, 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_reflection_parity():
    # the noise enters through a divergence, so its single spatial component
    # changes sign under reflection; both components are then even
    s = small_sampler(seed=9, sizes=(16, 64))
    noise = mc.sample_noise(s, 0)
    x = (3, 11)

    def reflect(arr):
        return np.roll(np.flip(arr, axis=1), 1, axis=1)

    refl = [
        SpectralField(s.grid, -reflect(c.values), "physical") for c in noise
    ]
    x_r = (x[0], (-x[1]) % s.grid.sizes[1])
    for op in (mc.pi_f0, mc.pi_f0f1):
        lhs = op(refl, x_r).values
        rhs = reflect(op(noise, x).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bphz_f0_zero_oracle():
    rep = mc.bphz_triviality_check(
        small_sampler(seed=3), [1e-6, 1e-4], component="f0", n_samples=96
    )
    assert rep.oracles == (0.0, 0.0)
    assert rep.worst_z() < 3.5


def test_bphz_f0f1_oracle_vanishes_for_even_density():
    rep = mc.bphz_triviality_check(
        small_sampler(seed=5), [1e-6, 1e-4], component="f0f1", n_samples=96
    )
    scale = max(abs(e) for e in rep.estimates)
    for oracle in rep.oracles:
        assert abs(oracle) < 1e-12 * max(scale, 1e-30)
    assert rep.worst_z() < 3.5
    with pytest.raises(ConfigError):
        mc.bphz_triviality_check(small_sampler(), [1e-6], component="f2")


def test_report_serialisation(capsys):
    argv = ["simulate", "--task", "covariance", "--alpha", "0.55", "--tau", "1e-14",
            "--sizes", "32,128", "--seed", "3", "--samples", "64"]
    assert main(argv) == 0
    blob = json.loads(capsys.readouterr().out)
    rep = mc.covariance_check(small_sampler(seed=3), n_samples=64)
    assert list(blob) == ["estimator", "samples", "points", "estimates",
                          "standard_errors", "oracles", "z_scores"]
    assert blob["estimator"] == "covariance" and blob["samples"] == 64
    assert blob["points"] == [list(p) for p in rep.points]
    assert blob["estimates"] == list(rep.estimates)
    assert main([*argv, "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["point", "estimate", "standard_error", "oracle", "z"]
    assert len(rows) == len(rep.points)
    for row, point, z in zip(rows, rep.points, rep.z_scores):
        assert row[0] == str(point) and float(row[4]) == z


def test_equal_time_density_matches_extended_lattice_sum():
    # independent cross-check of the line integral: a time-frequency lattice
    # sum with unit spacing and a wide truncation approximates it closely
    s = small_sampler(seed=1, tau=1e-20, sizes=(8, 64))
    k1 = 2.0
    p = mc.equal_time_density(s)[2]  # the lattice k1 = 0, ..., 32
    ridge = (2 * np.pi * k1) ** 4 / (2 * np.pi)
    js = np.arange(-int(3000 * ridge), int(3000 * ridge) + 1)
    ff = s.spec.evaluator(js, k1) * s.moll.squared_symbol(js, k1)
    q = (2 * np.pi * js) ** 2 + (2 * np.pi * k1) ** 8
    brute = np.sum((2 * np.pi * k1) ** 2 * ff / q)
    assert abs(p - brute) < 1e-3 * brute


def test_scaling_fit_f0_reaches_continuum_exponent():
    alpha, tau = 0.55, 1e-24
    grid = SpectralGrid(d=1, sizes=(8, 1024), boxes=(1.0, 1.0))
    t8 = tau**0.125
    window = (8 * t8, 80 * t8)
    slopes = [mc.scaling_fit(mc.NoiseSampler(grid=grid, spec=covariance_spec(alpha),
                                             moll=mollifier_spec("semigroup", tau), seed=seed),
                             window) for seed in (1, 2)]
    assert abs(slopes[0] - 2 * alpha) < 0.03
    assert slopes[1] == slopes[0]  # the slope samples nothing


def test_scaling_fit_f0_tau_independent():
    # the window moves with tau^(1/8); measured 1.09042 and 1.09432
    alpha = 0.55
    grid = SpectralGrid(d=1, sizes=(8, 1024), boxes=(1.0, 1.0))
    slopes = []
    for tau in (1e-24, 5e-25):
        t8 = tau**0.125
        s = mc.NoiseSampler(
            grid=grid, spec=covariance_spec(alpha),
            moll=mollifier_spec("semigroup", tau), seed=7,
        )
        slopes.append(mc.scaling_fit(s, (8 * t8, 80 * t8)))
    assert abs(slopes[0] - slopes[1]) < 0.01


SCALING_SETTINGS = pytest.mark.parametrize("alpha, m0, kind, tau, sizes, window", [
    (0.55, 1.0, "semigroup", 1e-24, (8, 1024), (8e-3, 8e-2)),
    (0.8, 1.5, "anisotropic", 1e-16, (8, 2048), (0.012, 0.12)),
])


def _scaling_sampler(alpha, m0, kind, tau, sizes, seed=4):
    grid = SpectralGrid(d=1, sizes=sizes, boxes=(1.0, 1.0))
    return mc.NoiseSampler(grid=grid, spec=covariance_spec(alpha, m0),
                           moll=mollifier_spec(kind, tau, eta=2.0, m0=m0), seed=seed)


@SCALING_SETTINGS
def test_scaling_fit_rows_are_the_mean_squared_increments_of_the_draws(
        monkeypatch, alpha, m0, kind, tau, sizes, window):
    # the fit reads the line density once, by the gap-form rows; the
    # reference draws fields of exactly that power, with random phases,
    # and averages their squared increments by np.roll.  The fit's read is
    # captured at its slope fit
    s = _scaling_sampler(alpha, m0, kind, tau, sizes)
    fitted = []
    fit = mc.fit_log_slope

    def capture(xs, ys):
        fitted.append(np.array(ys))
        return fit(xs, ys)

    monkeypatch.setattr(mc, "fit_log_slope", capture)
    slope = mc.scaling_fit(s, window)
    (read,) = fitted
    grid = s.grid
    n = grid.sizes[1]
    js = mc._separation_indices(grid, window)
    assert slope == fit(js, read)
    scale = np.sqrt(mc.equal_time_density(s) * n / grid.boxes[1])
    phases = np.random.default_rng(4).uniform(0.0, 2 * np.pi, (3, n // 2 + 1))
    phases[:, [0, -1]] = 0.0  # the zero and Nyquist modes of a real field are real
    for phase in phases:
        w = np.fft.irfft(np.sqrt(n) * np.exp(1j * phase) * scale, n)
        want = np.array([np.mean((np.roll(w, -j) - w) ** 2) for j in js])
        assert np.max(np.abs(read - want) / want) <= 1e-13


def test_scaling_fit_draws_nothing(monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(mc, "_keyed_normals", lambda: lambda key, shape: drawn.append(shape))
    mc.scaling_fit(_scaling_sampler(0.55, 1.0, "semigroup", 1e-24, (8, 1024)), (8e-3, 8e-2))
    assert main(["simulate", "--task", "scaling", "--alpha", "0.55", "--tau", "1e-24",
                 "--sizes", "4,512", "--window", "8e-3,8e-2"]) == 0
    assert drawn == []
    assert list(json.loads(capsys.readouterr().out)) == ["task", "deterministic_slope"]


def _two_term_exponent(js, moment):
    """gamma of the torus law moment(j) = A j^gamma - B j^2, fitted in log:
    a bounded search over gamma, with (A, B) by linear least squares in
    relative terms at each gamma."""
    js = np.asarray(js, dtype=float)

    def misfit(gamma):
        cols = np.stack([js ** gamma, -js ** 2], axis=1) / moment[:, None]
        (a, b), *_ = np.linalg.lstsq(cols, np.ones_like(moment), rcond=None)
        model = a * js ** gamma - b * js ** 2
        return np.inf if np.any(model <= 0) else np.sum(np.log(model / moment) ** 2)

    return minimize_scalar(misfit, bounds=(0.5, 3.0), method="bounded",
                           options={"xatol": 1e-10}).x


@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9])
def test_scaling_fit_moment_follows_the_two_term_torus_law(alpha):
    # E|Pi_f0(y)|^2 ~ |y - x|^(2 alpha) (the paper's bound on Pi_x f0), with
    # the box correction r^(2 - 2 alpha) of the torus: D = A j^gamma - B j^2.
    # D(j) = G(0) - G(j), G the inverse transform of the line density, does
    # not pass through the fit's gap-form rows.  Measured gamma - 2 alpha:
    # +2.8e-3, +3.7e-4 and -4.1e-4; a line density with |2 pi k1| for
    # (2 pi k1)^2 moves gamma to 2.10, 2.49 and 2.48
    n, window = 4096, (8e-3, 8e-2)
    grid = SpectralGrid(d=1, sizes=(8, n), boxes=(1.0, 1.0))
    s = mc.NoiseSampler(grid=grid, spec=covariance_spec(alpha),
                        moll=mollifier_spec("semigroup", 1e-40), seed=0)
    js = mc._separation_indices(grid, window)  # j = 33, ..., 327
    g = np.fft.irfft(mc.equal_time_density(s), n)
    moment = g[0] - g[js]
    assert abs(mc.scaling_fit(s, window) - mc.fit_log_slope(js, moment)) <= 1e-12
    assert abs(_two_term_exponent(js, moment) - 2 * alpha) <= 5e-3


def test_scaling_fit_window_validation():
    s = small_sampler()
    with pytest.raises(ConfigError):
        mc.scaling_fit(s, (0.05, 0.1))  # < half decade
    with pytest.raises(ConfigError):
        mc.scaling_fit(s, (0.2, 0.1))
    with pytest.raises(ConfigError):
        mc.scaling_fit(s, (0.05, 0.6))  # beyond box/2
    # tau^(1/8) is 0.0178: below it the field is smooth
    with pytest.raises(ConfigError, match="mollification scale"):
        mc.scaling_fit(s, (0.01, 0.12))


def test_base_point_validation():
    s = small_sampler()
    noise = mc.sample_noise(s, 0)
    with pytest.raises(ConfigError):
        mc.pi_f0(noise, (1, 2, 3))
    # periodic wrapping of indices
    p = mc.pi_f0(noise, (-1, 130))
    assert p.values[(31, 2)] == 0.0
