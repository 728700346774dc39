"""Spectral grid, kernel symbols, convolution and inversion checks."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import moment_spreads_per_order, unit_response_second_moment
from tfrenorm import mc
from tfrenorm.constants import covariance_spec, mollifier_spec
from tfrenorm.errors import ConfigError
from tfrenorm.kernel import (
    SpectralField,
    SpectralGrid,
    aniso_norm,
    checks_grid,
    convolve,
    derivative,
    dump_field,
    evenness_defect,
    kernel_field,
    inversion_residual,
    load_field,
    moment_bound_spreads,
    psi_hat,
    real_defect,
    scaling_defect,
    semigroup_defect,
    solve_L_div,
    symbol_L,
    symbol_LLstar,
)

TWO_PI = 2.0 * math.pi


def small_grid():
    """Cheap grid for identities that hold at any resolution."""
    return SpectralGrid(d=1, sizes=(64, 128), boxes=(1e-4, 1.0))


# ---------------------------------------------------------------------------
# grid and field plumbing
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ConfigError):
        SpectralGrid(d=1, sizes=(63, 128), boxes=(1.0, 1.0))  # odd
    with pytest.raises(ConfigError):
        SpectralGrid(d=1, sizes=(64,), boxes=(1.0, 1.0))  # wrong arity
    with pytest.raises(ConfigError):
        SpectralGrid(d=1, sizes=(64, 128), boxes=(0.0, 1.0))
    with pytest.raises(ConfigError):
        SpectralGrid(d=0, sizes=(64,), boxes=(1.0,))


def test_frequencies_are_half_open_integer_range():
    grid = small_grid()
    for axis in (0, 1):
        j = np.sort(grid.frequencies(axis) * grid.boxes[axis])
        n = grid.sizes[axis]
        assert np.allclose(j, np.arange(-n // 2, n // 2))


def test_field_round_trip_and_validation():
    grid = small_grid()
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.sizes)
    field = SpectralField(grid, vals, "physical")
    hat = field.to_fourier()
    assert hat.values.shape == grid.spectrum_shape == (33, 128)
    assert hat.values.dtype == np.complex128
    back = hat.to_physical()
    assert back.space == "physical" and back.values.dtype == np.float64
    assert np.max(np.abs(back.values - vals)) < 1e-12 * np.max(np.abs(vals))
    with pytest.raises(ConfigError):
        SpectralField(grid, vals[:-1], "physical")
    with pytest.raises(ConfigError):
        SpectralField(grid, vals, "fourier")  # full shape, not the half spectrum
    with pytest.raises(ConfigError):
        SpectralField(grid, vals, "spectral")


def test_hermitian_defect_flags_complex_data():
    # real_defect measures the Fourier data no real field carries
    grid = small_grid()
    rng = np.random.default_rng(4)
    real_field = SpectralField(grid, rng.standard_normal(grid.sizes), "physical")
    assert real_defect(real_field) < 1e-14
    hat = real_field.to_fourier().values.copy()
    hat[0, 5] += 0.3j * np.abs(hat).max()  # breaks conjugate symmetry at k0 = 0
    assert real_defect(SpectralField(grid, hat, "fourier")) > 0.1
    interior = real_field.to_fourier().values.copy()
    interior[3, 5] *= 1j  # interior modes have no symmetry to break
    assert real_defect(SpectralField(grid, interior, "fourier")) < 1e-14


# ---------------------------------------------------------------------------
# symbols and the kernel transform
# ---------------------------------------------------------------------------


def test_symbol_values():
    assert symbol_LLstar((0.0, 0.0), 1.0) == 0.0
    assert symbol_LLstar((1.0, 0.0), 1.0) == pytest.approx(TWO_PI**2, rel=1e-14)
    assert symbol_LLstar((0.0, 1.0), 1.0) == pytest.approx(TWO_PI**8, rel=1e-14)
    assert symbol_L((0.0, 0.0), 1.0) == 0.0
    assert symbol_L((0.0, 1.0), 1.0) == pytest.approx(TWO_PI**4, rel=1e-14)
    assert symbol_L((1.0, 0.0), 2.0) == pytest.approx(TWO_PI * 1j, rel=1e-14)
    with pytest.raises(ConfigError):
        symbol_LLstar((1.0, 1.0), 0.0)
    with pytest.raises(ConfigError):
        symbol_L((1.0, 1.0), -2.0)


def test_symbol_L_modulus_is_symbol_LLstar():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = rng.integers(1, 4)
        k = rng.standard_normal(d + 1) * 3.0
        m0 = float(rng.uniform(0.2, 3.0))
        lhs = abs(symbol_L(k, m0)) ** 2
        rhs = symbol_LLstar(k, m0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_psi_hat_delta_start_and_semigroup_property():
    grid = small_grid()
    mesh = grid.frequency_mesh()
    assert np.all(psi_hat(0.0, mesh, 1.0) == 1.0)
    s, t = 2e-12, 5e-12
    prod = psi_hat(s, mesh, 1.3) * psi_hat(t, mesh, 1.3)
    assert np.allclose(prod, psi_hat(s + t, mesh, 1.3), rtol=1e-12)
    with pytest.raises(ConfigError):
        psi_hat(-1e-12, mesh, 1.0)


def test_convolve_identity_and_semigroup():
    grid = small_grid()
    rng = np.random.default_rng(7)
    field = SpectralField(grid, rng.standard_normal(grid.sizes), "physical")
    same = convolve(field, 0.0)
    assert np.max(np.abs(same.values - field.values)) < 1e-12
    s, t = 3e-12, 7e-12
    two = convolve(convolve(field, s), t)
    one = convolve(field, s + t)
    scale = np.max(np.abs(one.values))
    assert np.max(np.abs(two.values - one.values)) / scale < 1e-10


def test_kernel_field_is_real_even_and_mass_one():
    grid = small_grid()
    psi = kernel_field(grid, 1e-11)
    assert psi.values.dtype == np.float64 and real_defect(psi) < 1e-14
    assert evenness_defect(psi) < 1e-12
    # unit mass: the zero mode of the transform is exp(0) = 1
    assert np.sum(psi.values) * grid.cell == pytest.approx(1.0, rel=1e-12)


def test_semigroup_defect_small_grid():
    assert semigroup_defect(small_grid(), 3e-12, 7e-12) < 1e-10


def test_scaling_identity_on_checks_grid():
    defect = scaling_defect(checks_grid(), 3e-13)
    assert defect < 1e-5


def test_moment_ratios_stay_uniform_over_two_decades():
    spreads = moment_bound_spreads(
        checks_grid(), np.geomspace(1e-12, 1e-10, 3)
    )
    assert set(orders for orders, _ in spreads) == {(0, 0), (0, 1), (0, 2), (0, 3)}
    for key, spread in spreads.items():
        assert spread < 0.1, f"moment ratio drifts at {key}: {spread:.3f}"


def test_moment_spreads_match_the_per_order_weight_loop():
    grid = checks_grid()
    times = [1e-12, 1e-11]
    got = moment_bound_spreads(grid, times)
    want = moment_spreads_per_order(grid.sizes, grid.boxes, times)
    assert got.keys() == want.keys()
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-15


def test_moment_spreads_peak_memory():
    # one physical-grid array of checks_grid() is 16 MiB; the sweep holds
    # six at its peak, and holding the three theta weights at once would
    # add two more
    grid = checks_grid()
    tracemalloc.start()
    try:
        moment_bound_spreads(grid, [1e-12, 1e-11])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * grid.point_count * 8


# ---------------------------------------------------------------------------
# the inversion u = L^{-1} div f
# ---------------------------------------------------------------------------


def test_solve_single_mode():
    grid = small_grid()
    hat = np.zeros(grid.spectrum_shape, dtype=complex)
    hat[1, 2] = 1.0
    k = (grid.frequencies(0)[1], grid.frequencies(1)[2])
    u = solve_L_div([SpectralField(grid, hat, "fourier")], m0=1.5)
    want = TWO_PI * 1j * k[1] / symbol_L(k, 1.5)
    assert u.values[1, 2] == pytest.approx(want, rel=1e-14)
    other = u.values.copy()
    other[1, 2] = 0.0
    assert np.max(np.abs(other)) == 0.0


def test_solve_zero_field_and_gauge():
    grid = small_grid()
    zero = SpectralField(grid, np.zeros(grid.sizes), "physical")
    u = solve_L_div([zero])
    assert np.max(np.abs(u.values)) == 0.0
    # constant (k = 0) input is annihilated by the divergence
    const = SpectralField(grid, np.ones(grid.sizes), "physical")
    assert np.max(np.abs(solve_L_div([const]).values)) < 1e-14


def test_solve_residual_and_realness():
    residual, realness = inversion_residual(small_grid(), seed=5)
    assert residual < 1e-10
    assert realness < 1e-10


def test_solve_component_validation():
    grid = small_grid()
    f = SpectralField(grid, np.zeros(grid.sizes), "physical")
    with pytest.raises(ConfigError):
        solve_L_div([])
    with pytest.raises(ConfigError):
        solve_L_div([f, f])  # d = 1 wants one component
    other = SpectralGrid(d=1, sizes=(32, 64), boxes=(1e-4, 1.0))
    g2 = SpectralGrid(d=2, sizes=(16, 16, 16), boxes=(1.0, 1.0, 1.0))
    comps = [
        SpectralField(g2, np.zeros(g2.sizes), "physical"),
        SpectralField(other, np.zeros(other.sizes), "physical"),
    ]
    with pytest.raises(ConfigError):
        solve_L_div(comps)


def test_derivative_single_mode():
    grid = small_grid()
    x1 = grid.coordinates(1)
    k1 = 3.0 / grid.boxes[1]
    field = SpectralField(
        grid, np.broadcast_to(np.cos(TWO_PI * k1 * x1), grid.sizes), "physical"
    )
    d1 = derivative(field, (0, 1))
    want = -TWO_PI * k1 * np.sin(TWO_PI * k1 * x1)
    assert np.max(np.abs(d1.values - want)) < 1e-9 * TWO_PI * k1
    with pytest.raises(ConfigError):
        derivative(field, (0, 1, 0))


def test_odd_derivative_of_a_nyquist_mode_is_zero():
    # +N/2 and -N/2 are one mode, so an odd derivative of a real field has
    # no real value there: the Nyquist rule maps it to zero
    grid = small_grid()
    nyquist = (-1.0) ** np.arange(grid.sizes[1])
    field = SpectralField(grid, np.broadcast_to(nyquist, grid.sizes), "physical")
    scale = np.max(np.abs(derivative(field, (0, 2)).values))
    assert scale > 1.0
    for orders in [(0, 1), (0, 3)]:
        assert np.max(np.abs(derivative(field, orders).values)) == 0.0
    hat = derivative(field.to_fourier(), (0, 1)).values
    assert np.max(np.abs(hat)) == 0.0


def test_aniso_norm_values():
    assert aniso_norm((0.0, 0.0)) == 0.0
    assert aniso_norm((16.0, 0.0)) == pytest.approx(2.0)
    assert aniso_norm((1.0, 3.0)) == pytest.approx(4.0)
    arr = aniso_norm((np.array([16.0, 0.0]), np.array([0.0, 2.0])))
    assert np.allclose(arr, [2.0, 2.0])


def test_white_noise_reflection_parity():
    # flat spectrum, so every Nyquist mode carries weight (the short time
    # box makes the time-and-space Nyquist corner count too): the noise
    # enters through a divergence, reflection flips its sign, and both
    # model components must come out even
    grid = small_grid()
    noise = [SpectralField(grid, np.random.default_rng(8).standard_normal(grid.sizes),
                           "physical")]
    x = (3, 11)

    def reflect(arr):
        return np.roll(np.flip(arr, axis=1), 1, axis=1)

    refl = [SpectralField(grid, -reflect(c.values), "physical") for c in noise]
    x_r = (x[0], (-x[1]) % grid.sizes[1])
    for op in (mc.pi_f0, mc.pi_f0f1):
        rhs = reflect(op(noise, x).values)
        lhs = op(refl, x_r).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_covariance_is_the_periodogram_transform():
    # Wiener-Khinchin: all lags at once equal the per-lag average over
    # base points of xi(x) xi(x + r)
    grid = SpectralGrid(d=1, sizes=(16, 64), boxes=(1.0, 1.0))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(0.55),
                              moll=mollifier_spec("semigroup", 1e-12), seed=4)
    lags = [(0, 0), (0, 1), (0, 7), (0, 32), (1, 0), (5, 0), (3, 9), (15, 63)]
    rep = mc.covariance_check(sampler, lags=lags, n_samples=4)
    rolled = np.zeros(len(lags))
    for i in range(4):
        xi = mc.sample_noise(sampler, i)[0].values
        rolled += [np.mean(xi * np.roll(xi, [-s for s in lag], axis=(0, 1)))
                   for lag in lags]
    rolled /= 4
    assert np.max(np.abs(np.array(rep.estimates) - rolled)) < 1e-12 * rolled[0]


@pytest.mark.parametrize("sizes, alpha, tau, m0", [
    ((4, 8), 0.55, 1e-12, 1.0),
    ((8, 32), 0.58, 1e-15, 0.6),
])
def test_moment_oracle_is_the_exact_second_moment(sizes, alpha, tau, m0):
    # pi_f0 is linear in the white-noise draw, so its exact second moment
    # is the sum of its squared responses to every unit draw.  The spatial
    # Nyquist row carries mass, where the odd power of k in L^{-1} div
    # vanishes, and the time-Nyquist plane is where the inverse real
    # transform drops the antisymmetric part of the multiplier.
    grid = SpectralGrid(d=1, sizes=sizes, boxes=(1.0, 1.0))
    sampler = mc.NoiseSampler(grid=grid, spec=covariance_spec(alpha, m0),
                              moll=mollifier_spec("semigroup", tau, m0=m0), seed=0)
    assert np.min(sampler.density()[:, sizes[1] // 2]) > 0.0
    x = (1, 3)
    scale = np.sqrt(sampler.density() / grid.cell)

    def response(white):  # sample_noise with the draw given
        hat = SpectralField(grid, white, "physical").to_fourier().values * scale
        return mc.pi_f0([SpectralField(grid, hat, "fourier").to_physical()], x, m0).values

    exact = unit_response_second_moment(response, grid.sizes)
    rep = mc.pi_f0_second_moment_check(sampler, x=x, n_samples=4)
    want = np.array([exact[tuple((xi + si) % n for xi, si, n in zip(x, sep, sizes))]
                     for sep in rep.points])
    assert np.max(np.abs(np.array(rep.oracles) - want) / want) <= 1e-12


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def test_dump_load_round_trip_physical(tmp_path):
    grid = small_grid()
    rng = np.random.default_rng(9)
    field = SpectralField(grid, rng.standard_normal(grid.sizes), "physical")
    path = tmp_path / "field.bin"
    dump_field(field, path)
    sidecar = (tmp_path / "field.bin.json").read_text()
    assert '"space"' in sidecar and '"sizes"' in sidecar and '"boxes"' in sidecar
    back = load_field(path)
    assert back.space == "physical"
    assert back.grid == grid
    assert np.allclose(back.values, field.values)


def test_dump_rejects_complex_physical_data():
    # complex physical data cannot even be built, so it never reaches a dump
    grid = small_grid()
    with pytest.raises(ConfigError):
        SpectralField(grid, np.full(grid.sizes, 1.0 + 0.5j), "physical")
    with pytest.raises(ConfigError):
        SpectralField(grid, np.full(grid.sizes, 1.0 + 0j), "physical")


def test_load_requires_sidecar_and_size_match(tmp_path):
    grid = small_grid()
    field = SpectralField(grid, np.zeros(grid.sizes), "physical")
    path = tmp_path / "field.bin"
    dump_field(field, path)
    (tmp_path / "orphan.bin").write_bytes(path.read_bytes())
    with pytest.raises(ConfigError):
        load_field(tmp_path / "orphan.bin")
    # only physical dumps exist
    sidecar = tmp_path / "field.bin.json"
    sidecar.write_text(sidecar.read_text().replace('"physical"', '"fourier"'))
    with pytest.raises(ConfigError):
        load_field(path)
    dump_field(field, path)
    # truncate the payload
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ConfigError):
        load_field(path)
