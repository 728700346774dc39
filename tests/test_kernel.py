"""Spectral grid, kernel symbols, convolution and inversion checks."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import separable_moment_spreads, unit_response_second_moment
from tfrenorm import kernel, mc
from tfrenorm.constants import covariance_spec, mollifier_spec
from tfrenorm.errors import ConfigError
from tfrenorm.kernel import (
    SpectralField,
    SpectralGrid,
    _kernel_factors,
    check_m0,
    checks_grid,
    convolve,
    derivative,
    dump_field,
    evenness_defect,
    kernel_field,
    inversion_residual,
    kernel_checks,
    load_field,
    moment_bound_spreads,
    point_reader,
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


def small_checks_grid():
    """The smallest grid of the shape of checks_grid() that kernel_checks runs on."""
    return SpectralGrid(d=1, sizes=(128, 512), boxes=(1e-4, 4.0))


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


# d = 1 and d = 2, with time the shortest and the longest axis, and last
# axes that span more than two blocks of the time passes, the last partial
BLOCK_EDGE_SIZES = [(8, 4002), (4, 6, 1002)]
STAGED_SIZES = [(8, 32), (64, 6), (6, 300), (4, 6, 10), (16, 4, 34)] + BLOCK_EDGE_SIZES


@pytest.mark.parametrize("sizes", BLOCK_EDGE_SIZES)
def test_block_edge_sizes_end_in_a_partial_block(sizes):
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    blocks = [block[-1] for block in kernel._blocks(grid)]
    assert len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert blocks[0].start == 0 and blocks[-1].stop == sizes[-1]


@pytest.mark.parametrize("sizes", STAGED_SIZES)
def test_staged_transforms_equal_the_numpy_nd_transforms(sizes):
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(0.5,) + (3.0,) * (len(sizes) - 1))
    args = {"s": sizes[1:] + sizes[:1], "axes": tuple(range(1, grid.d + 1)) + (0,)}
    rng = np.random.default_rng(len(sizes) * sizes[-1])
    vals = rng.standard_normal(sizes)
    # a random half spectrum is not conjugate symmetric on the k0 = 0 and
    # time-Nyquist planes, so the inverse must keep irfftn's projection
    noisy = (rng.standard_normal(grid.spectrum_shape)
             + 1j * rng.standard_normal(grid.spectrum_shape))
    want = np.fft.irfftn(noisy, **args) / grid.cell
    assert np.max(np.abs(np.fft.rfftn(want, **args) * grid.cell - noisy)) > 1e-3
    for order in "CF":  # C-ordered and time-contiguous input
        vals, noisy = np.array(vals, order=order), np.array(noisy, order=order)
        hat = SpectralField(grid, vals, "physical").to_fourier().values
        assert np.array_equal(hat, np.fft.rfftn(vals, **args) * grid.cell)
        assert np.array_equal(SpectralField(grid, noisy, "fourier").to_physical().values, want)
        assert np.array_equal(kernel._inverse(grid, noisy.copy(order="K"), owned=True), want)
    # in place: the inverse packs the physical values at the front of its
    # working copy, and the forward transform writes back into that buffer
    work = np.array(noisy, order="F")
    assert np.array_equal(kernel._forward(grid, kernel._inverse(grid, work, owned=True), out=work),
                          np.fft.rfftn(want, **args) * grid.cell)


@pytest.mark.parametrize("sizes", [(8, 32), (4, 6, 10)] + BLOCK_EDGE_SIZES)
def test_read_only_inputs_are_read_not_written(sizes):
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    rng = np.random.default_rng(17)
    phys = rng.standard_normal(sizes)
    hat = SpectralField(grid, phys, "physical").to_fourier().values
    comps = [rng.standard_normal(sizes) for _ in range(grid.d)]
    orders = (1,) + (1,) * grid.d

    def results(writable, order):
        def field(values, space):
            values = np.array(values, order=order)
            values.setflags(write=writable)
            return SpectralField(grid, values, space)

        return [
            field(phys, "physical").to_fourier().values,
            field(hat, "fourier").to_physical().values,
            convolve(field(phys, "physical"), 1e-6).values,
            convolve(field(hat, "fourier"), 1e-6).values,
            derivative(field(phys, "physical"), orders).values,
            derivative(field(hat, "fourier"), orders).values,
            solve_L_div([field(c, "physical") for c in comps]).values,
            solve_L_div([field(c, "physical").to_fourier() for c in comps]).values,
            solve_L_div([field(hat, "fourier")] * grid.d).values,
            real_defect(field(hat, "fourier")),
            real_defect(field(phys, "physical")),
            evenness_defect(field(phys, "physical")),
            evenness_defect(field(hat, "fourier")),
        ]

    for order in "CF":  # C-ordered and time-contiguous input
        for got, want in zip(results(False, order), results(True, order), strict=True):
            assert np.array_equal(got, want)


def test_defects_of_the_zero_field_are_zero():
    grid = SpectralGrid(d=1, sizes=(8, 16), boxes=(1.0, 1.0))
    for space, shape in (("physical", grid.sizes), ("fourier", grid.spectrum_shape)):
        zero = SpectralField(grid, np.zeros(shape), space)
        assert evenness_defect(zero) == 0.0 and real_defect(zero) == 0.0


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



@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2).flatmap(lambda d: st.tuples(
        st.tuples(*[st.integers(1, 5).map(lambda h: 2 * h)] * (d + 1)),
        st.tuples(*[st.floats(0.25, 4.0)] * (d + 1)),
    )),
    st.integers(0, 2**32 - 1),
)
def test_point_reader_matches_the_inverse_transform(shape, seed):
    # a random half spectrum is not conjugate symmetric on the k0 = 0 and
    # time-Nyquist planes: the reader must take the real part there exactly
    # as irfftn does, at random cells and on every Nyquist row; a real half
    # spectrum, the periodogram of a random field, is read as it is
    sizes, boxes = shape
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=boxes)
    rng = np.random.default_rng(seed)
    hat = (rng.standard_normal(grid.spectrum_shape)
           + 1j * rng.standard_normal(grid.spectrum_shape))
    full = SpectralField(grid, hat, "fourier").to_physical()
    assert np.max(np.abs(full.to_fourier().values - hat)) > 1e-3
    cells = [tuple(int(rng.integers(n)) for n in sizes) for _ in range(5)]
    cells += [tuple(n // 2 for n in sizes),
              (sizes[0] // 2,) + tuple(int(rng.integers(n)) for n in sizes[1:]),
              tuple(int(rng.integers(n)) for n in sizes[:-1]) + (sizes[-1] // 2,)]
    field = SpectralField(grid, rng.standard_normal(sizes), "physical")
    periodogram = np.abs(field.to_fourier().values) ** 2
    assert periodogram.dtype == np.float64
    read = point_reader(grid, cells)
    for spectrum in (hat, periodogram):
        full = SpectralField(grid, spectrum, "fourier").to_physical().values
        want = np.array([full[cell] for cell in cells])
        assert np.max(np.abs(read(spectrum) - want)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("sizes", [(8, 32), (4, 6, 8)])
def test_point_reader_on_columns_reads_as_in_full(sizes):
    # a half spectrum that is zero off a set of spatial columns reads the
    # same from its block on them, with and without multipliers and a base
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    rng = np.random.default_rng(3)
    rows = grid.spectrum_shape[0]
    cols = np.sort(rng.choice(math.prod(sizes[1:]), 7, replace=False))
    hat = np.zeros(grid.spectrum_shape, dtype=complex)
    block = rng.standard_normal((rows, 7)) + 1j * rng.standard_normal((rows, 7))
    hat.reshape(rows, -1)[:, cols] = block
    mult = rng.standard_normal(grid.spectrum_shape)
    cells = [tuple(int(rng.integers(n)) for n in sizes) for _ in range(4)]
    scale = np.max(np.abs(SpectralField(grid, hat, "fourier").to_physical().values))
    for base in (None, cells[0]):
        full = point_reader(grid, cells, [mult], base=base)(hat)
        on_cols = point_reader(grid, cells, [mult.reshape(rows, -1)[:, cols]], cols,
                               base=base)(block)
        assert np.max(np.abs(full - on_cols)) <= 1e-14 * scale


@pytest.mark.parametrize("sizes", [(16, 64), (4, 6, 8)])
def test_point_reader_reads_gaps_without_cancellation(sizes):
    # a field of size 1 on a constant offset of 1e8: rows based at a cell
    # read the gaps of the field to full relative accuracy (against a long
    # double sum), where the difference of two reads loses the offset's
    # rounding, about 1e-8 absolute
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    rng = np.random.default_rng(12)
    hat = (rng.standard_normal(grid.spectrum_shape)
           + 1j * rng.standard_normal(grid.spectrum_shape)) / math.sqrt(grid.point_count)
    hat.flat[0] = 0.0
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    c = np.full(grid.spectrum_shape[:1] + (1,) * grid.d, ld(2))
    c[[0, -1]] = 1
    wavenumbers = np.meshgrid(np.arange(grid.spectrum_shape[0]),
                              *[np.fft.fftfreq(n, 1.0 / n).astype(int) for n in sizes[1:]],
                              indexing="ij", sparse=True)

    def exact(cell):
        turns = sum(ld((j * x) % n) / n for j, x, n in zip(wavenumbers, cell, sizes))
        return np.sum(c * (hat.real * np.cos(two_pi * turns) - hat.imag * np.sin(two_pi * turns)))

    base = (1,) + (2,) * grid.d
    cells = [tuple(b + (i == axis) for i, b in enumerate(base)) for axis in range(grid.d + 1)]
    cells += [tuple(int(rng.integers(n)) for n in sizes) for _ in range(3)]
    want = np.array([float(exact(cell) - exact(base)) for cell in cells])
    hat.flat[0] = 1e8
    got = point_reader(grid, cells, base=base)(hat)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    plain = point_reader(grid, cells + [base])(hat)
    assert np.max(np.abs(plain[:-1] - plain[-1] - want)) > 1e-10 * np.max(np.abs(want))


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


def test_psi_hat_is_its_time_factor_times_its_space_factor():
    grid = SpectralGrid(d=2, sizes=(16, 32, 8), boxes=(1e-4, 1.0, 2.0))
    mesh = grid.frequency_mesh()
    for t in (0.0, 1e-12, 1e-10, 1e-8):
        full = np.exp(-t * symbol_LLstar(mesh, 1.3))
        np.testing.assert_allclose(psi_hat(t, mesh, 1.3), full, rtol=1e-12, atol=1e-300)


def test_psi_hat_underflows_to_zero_without_a_warning():
    # t times the symbol overflows; the suite makes a RuntimeWarning an error
    grid = small_grid()
    psi = psi_hat(1e300, grid.frequency_mesh(), 1.0)
    assert psi.ravel()[0] == 1.0 and not np.any(psi.ravel()[1:])


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


@pytest.mark.parametrize("grid", [
    checks_grid(),
    SpectralGrid(d=1, sizes=(64, 96), boxes=(1e-4, 1.0)),
    SpectralGrid(d=2, sizes=(16, 32, 24), boxes=(1e-4, 1.0, 1.5)),
], ids=["checks_grid", "d1", "d2"])
def test_kernel_field_from_its_factors_equals_the_inverse_of_psi_hat(grid):
    for t in (1e-12, 1e-11):
        hat = psi_hat(t, grid.frequency_mesh(), 1.3).astype(complex)
        want = kernel._inverse(grid, hat, owned=True)
        got = kernel_field(grid, t, 1.3).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_semigroup_defect_sees_a_wrong_inverse_transform(monkeypatch):
    # kernel_field does not run through _inverse, so a mutant inverse that
    # zeroes time row k0 = 1 shows in convolve's side of the gap alone
    inverse = kernel._inverse

    def mutant(grid, hat, owned=False):
        hat = np.array(hat)
        hat[1] = 0.0
        return inverse(grid, hat, owned=True)

    monkeypatch.setattr(kernel, "_inverse", mutant)
    assert semigroup_defect(small_grid(), 3e-12, 7e-12) > 1e-3


def test_evenness_and_realness_read_one_inverse_transform():
    # kernel_checks hands one physical view of psi_hat(1e-12) to both checks
    grid = small_checks_grid()
    hat = SpectralField(grid, psi_hat(1e-12, grid.frequency_mesh(), 1.0), "fourier")
    checks = kernel_checks(grid)
    assert checks["evenness"] == evenness_defect(hat)
    assert checks["realness"] == real_defect(hat)


def test_semigroup_defect_small_grid():
    assert semigroup_defect(small_grid(), 3e-12, 7e-12) < 1e-10


def test_scaling_identity_on_checks_grid():
    defect = scaling_defect(checks_grid(), 3e-13)
    assert defect < 1e-5


def test_kernel_checks_refuse_d2_before_the_full_grid_checks(monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("a full-grid check ran before the d = 1 check")

    monkeypatch.setattr(kernel, "semigroup_defect", not_reached)
    with pytest.raises(ConfigError, match="d = 1"):
        kernel_checks(SpectralGrid(d=2, sizes=(8, 8, 8), boxes=(1e-4, 1.0, 1.0)))


def test_kernel_checks_refuse_d2_before_any_transform(monkeypatch):
    # the chain's first full-grid step is the inverse of psi_hat_s, not
    # semigroup_defect, so the guard above alone would pass without it
    def not_reached(*args, **kwargs):
        raise AssertionError("a transform ran before the d = 1 check")

    monkeypatch.setattr(kernel, "_inverse", not_reached)
    monkeypatch.setattr(kernel, "_forward", not_reached)
    with pytest.raises(ConfigError, match="d = 1"):
        kernel_checks(SpectralGrid(d=2, sizes=(8, 8, 8), boxes=(1e-4, 1.0, 1.0)))


def test_kernel_checks_run_three_transforms_on_the_checked_grid(monkeypatch):
    # one chain on psi_hat_s: its inverse, the forward transform of that, and
    # the inverse of the product with psi_hat_t; inversion_residual keeps its
    # own three on the half lattice.  Every forward transform, to_fourier's
    # too, is kernel._forward.
    grid = small_checks_grid()
    counts = collections.Counter()
    forward, inverse = kernel._forward, kernel._inverse

    def counted_forward(on, vals, out=None):
        counts[on] += 1
        return forward(on, vals, out)

    def counted_inverse(on, hat, owned=False):
        counts[on] += 1
        return inverse(on, hat, owned)

    monkeypatch.setattr(kernel, "_forward", counted_forward)
    monkeypatch.setattr(kernel, "_inverse", counted_inverse)
    kernel_checks(grid)
    half = SpectralGrid(d=1, sizes=(64, 256), boxes=grid.boxes)
    assert counts == {grid: 3, half: 3}


def test_kernel_checks_see_a_wrong_forward_transform(monkeypatch):
    # realness and semigroup share one forward transform; a mutant that
    # scales its time row k0 = 1 by 1 + 1e-6 must show in both, above 1e-10
    # (the benchmark's semigroup limit; its realness limit is 1e-12)
    forward = kernel._forward

    def mutant(grid, vals, out=None):
        out = forward(grid, vals, out)
        out[1] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(kernel, "_forward", mutant)
    checks = kernel_checks(small_checks_grid())
    assert checks["realness"] > 1e-10 and checks["semigroup"] > 1e-10


def test_kernel_checks_see_a_wrong_inverse_transform(monkeypatch):
    # the mutant of test_semigroup_defect_sees_a_wrong_inverse_transform, run
    # through the whole chain: both of its inverses zero time row k0 = 1
    inverse = kernel._inverse

    def mutant(grid, hat, owned=False):
        hat = np.array(hat)
        hat[1] = 0.0
        return inverse(grid, hat, owned=True)

    monkeypatch.setattr(kernel, "_inverse", mutant)
    checks = kernel_checks(small_checks_grid())
    assert checks["semigroup"] > 1e-3 and checks["realness"] > 1e-10


@pytest.mark.parametrize("m0", [0.0, -1.0, math.nan, math.inf, 1.4e154, 1e200, 1e300])
def test_m0_needs_a_positive_finite_square(m0):
    # the symbols of L and LL* check m0 as check_m0 does, so no mesh function
    # fills a field with NaN (the suite makes the overflow's RuntimeWarning
    # an error)
    grid = SpectralGrid(d=1, sizes=(8, 16), boxes=(1e-4, 1.0))
    ones = [SpectralField(grid, np.ones(grid.sizes), "physical")]
    for call in (
        lambda: check_m0(m0),
        lambda: kernel_checks(small_checks_grid(), m0=m0),
        lambda: psi_hat(1e-12, grid.frequency_mesh(), m0),
        lambda: kernel_field(grid, 1e-12, m0),
        lambda: convolve(ones[0], 1e-12, m0),
        lambda: solve_L_div(ones, m0),
        lambda: mc.pi_f0(ones, None, m0),
        lambda: mc.pi_f0f1(ones, None, m0),
    ):
        with pytest.raises(ConfigError, match="finite square"):
            call()


def test_m0_just_below_the_square_overflow_is_accepted():
    assert check_m0(1.3e154) == 1.3e154
    assert check_m0(1e-200) == 1e-200


def test_moment_ratios_stay_uniform_over_two_decades():
    spreads = moment_bound_spreads(
        checks_grid(), np.geomspace(1e-12, 1e-10, 3)
    )
    assert set(orders for orders, _ in spreads) == {(0, 0), (0, 1), (0, 2), (0, 3)}
    for key, spread in spreads.items():
        assert spread < 0.1, f"moment ratio drifts at {key}: {spread:.3f}"


def test_moment_spreads_match_the_long_double_reference():
    # a sweep through 2-D transforms is 1.1e-14 off: the rounding floor of
    # the transform in the kernel's tails, weighted by |z|_s, enters the
    # theta = 1 sums
    grid = checks_grid()
    times = [1e-12, 1e-11]
    got = moment_bound_spreads(grid, times)
    want = separable_moment_spreads(grid.sizes, grid.boxes, times)
    assert got.keys() == want.keys()
    assert max(abs(got[key] - float(want[key])) for key in want) <= 3e-15


@pytest.mark.parametrize("t", [1e-12, 1e-10])
def test_kernel_factors_multiply_to_the_derivative_field(t):
    grid = checks_grid()
    hat = SpectralField(grid, psi_hat(t, grid.frequency_mesh(), 1.0), "fourier")
    a, factors = _kernel_factors(grid, t, 1.0, [(n1,) for n1 in range(4)])
    for n1, b in enumerate(factors):
        want = derivative(hat, (0, n1)).to_physical().values
        assert a.shape == (grid.sizes[0], 1) and b.shape == (1, grid.sizes[1])
        assert np.max(np.abs(a * b - want)) <= 2e-15 * np.max(np.abs(want))


def test_moment_spreads_peak_memory():
    # one physical-grid array of checks_grid() is 16 MiB; the sweep holds
    # one, the reciprocal weight (a sweep through 2-D transforms held six)
    grid = checks_grid()
    tracemalloc.start()
    try:
        moment_bound_spreads(grid, [1e-12, 1e-11])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * grid.point_count * 8


def peak_of(call, grid):
    """tracemalloc peak of call(), in half spectra of the grid."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (math.prod(grid.spectrum_shape) * 16)


def kernel_checks_peak(grid):
    """tracemalloc peak of kernel_checks(grid), in half spectra of the grid.
    The warm-up call keeps numpy's lazy module imports out of the count."""
    kernel_checks(small_checks_grid())
    return peak_of(lambda: kernel_checks(grid), grid)


def test_kernel_checks_peak_memory():
    # measured: 1.46 half spectra (2.27 with two half spectra live, 1.89 with
    # blocks of 126 of the 512 columns): the chain's one buffer plus a
    # block's temporaries and numpy's cast buffers, which on this small grid
    # are an eighth of a half spectrum each
    assert kernel_checks_peak(small_checks_grid()) <= 2.0


def test_kernel_checks_peak_memory_on_checks_grid():
    # measured: 1.04 half spectra (2.01 with two half spectra live): the
    # transforms and checks run in the one buffer _complex_psi_hat allocates,
    # and the time passes and reductions add a block of 128 KiB at a time
    assert kernel_checks_peak(checks_grid()) <= 1.1


def test_transform_and_convolve_peak_memory_on_checks_grid():
    # measured: 1.01 half spectra for to_physical and 1.03 for convolve (2.00
    # each when the time pass ran out of place over the whole array): each
    # allocates one time-contiguous half spectrum and works in it block by block
    grid = checks_grid()
    phys = SpectralField(grid, np.random.default_rng(5).standard_normal(grid.sizes), "physical")
    hat = SpectralField(grid, np.ascontiguousarray(phys.to_fourier().values), "fourier")
    assert peak_of(hat.to_physical, grid) <= 1.1
    assert peak_of(lambda: convolve(phys, 1e-12), grid) <= 1.1


def test_semigroup_defect_peak_memory_on_checks_grid():
    # measured: 1.03 half spectra (2.00 when kernel_field's physical values
    # and their forward transform were two arrays): a_s b_s is written at
    # the front of one time-contiguous buffer and transformed in place
    grid = checks_grid()
    semigroup_defect(small_checks_grid(), 1e-12, 9e-12)
    assert peak_of(lambda: semigroup_defect(grid, 1e-12, 9e-12), grid) <= 1.1


def test_inversion_residual_peak_memory():
    # the check runs on the half lattice, where a half spectrum is about a
    # quarter of the grid's: measured 1.28 half spectra of the grid (3.54
    # when it ran on the grid itself)
    grid = small_checks_grid()
    half_spectrum = math.prod(grid.spectrum_shape) * 16
    inversion_residual(grid)
    tracemalloc.start()
    try:
        inversion_residual(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * half_spectrum


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
    residual, realness = inversion_residual(small_grid())
    assert residual < 1e-10
    assert realness < 1e-10


@pytest.mark.parametrize("wrong", [
    lambda k, m0: symbol_L(k, m0 * m0),
    lambda k, m0: symbol_L(k, m0).conj(),  # the time term with the wrong sign
], ids=["m0_squared", "time_sign"])
def test_inversion_residual_fails_a_wrong_symbol_of_L(monkeypatch, wrong):
    # solve_L_div divides by kernel.symbol_L; the residual applies L without it
    monkeypatch.setattr(kernel, "symbol_L", wrong)
    residual, _ = inversion_residual(small_grid(), m0=1.7)
    assert residual > 1e-10


def test_inversion_band_limit_zeroes_the_transform_in_place(monkeypatch):
    # the band limit zeroes rows and columns of the forward transform's own
    # output: a masked copy would hold a second half spectrum beside it
    made, handed = [], []
    to_fourier, solve = SpectralField.to_fourier, kernel.solve_L_div

    def recorded_transform(field):
        hat = to_fourier(field)
        if field.space == "physical":
            made.append(hat.values)
        return hat

    def recorded_solve(components, m0):
        handed.extend(c.values for c in components)
        return solve(components, m0)

    monkeypatch.setattr(SpectralField, "to_fourier", recorded_transform)
    monkeypatch.setattr(kernel, "solve_L_div", recorded_solve)
    grid = SpectralGrid(d=2, sizes=(8, 16, 12), boxes=(1e-4, 1.0, 1.0))
    residual, _ = inversion_residual(grid)
    assert residual < 1e-10
    assert len(handed) == 2 and all(any(h is m for m in made) for h in handed)


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
    # the check averages over base points; the law is stationary, so its
    # oracle at r is the exact second moment at x + r for any x
    rep = mc.pi_f0_second_moment_check(sampler, n_samples=4)
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
