"""Monte Carlo layer: mollified noise, the two lowest model components,
and statistical checks against deterministic same-grid pairing oracles.

The ensemble is the Gaussian member of the admissible class, so every
second moment reported here has an exact oracle given by a Fourier pairing
sum over the very same lattice the samples live on -- grid distortion then
cancels in the comparison and the z-scores measure only sampling noise.
The moment oracle squares the kernel.div_symbols multipliers after the
projection the inverse real transform applies to them: that projection, not
the bare multiplier, is what reaches a real sample.

The checks keep each draw in Fourier space, on its support.  One
constructor, _NoiseSource(sampler), finds the spatial columns S where the
density lives and applies the half spectrum's plane rule: the c2r weights
c(k0) and the projection P on the self-conjugate planes
(_NoiseSource.project), which shapes each draw and each moment multiplier.
Component c of sample i is drawn directly as a block: its values on S,
zero elsewhere.  L^{-1} div is the div_symbols multipliers on S, and the
draw's amplitudes and the multipliers are formed once per check.  Values at
a few cells are read from a block by kernel.point_reader with rows on S
alone, each one small real matvec: psi_t * xi at the base point for bphz
f0, through rows W psi_t formed once per check.  The noise law is
translation invariant, so the other checks average each draw over every
base point, and by Parseval that average is a weighted sum over S of the
power Re(a conj b), a and b sums of multipliers times the draw's
components (_quadratic_check): |xi_hat|^2 read at the lags for the
covariance, |P M xi_hat|^2 at the separations for the moment and
Re(xi_hat conj(P M xi_hat)) weighted by c(k0) (1 - psi_t) for bphz f0+f1.
With one multiplier on each side it sits in the rows, so a sample is one
keyed draw and one square.  A read is linear, so the mean of the samples'
reads is the read of their mean: every check sums its samples' powers (bphz
f0 its blocks) and reads that sum once.  Every standard error is exact:
the modes of a draw are independent complex normals, except k and -k on
the planes, so the variance of a sample's read is a pairing sum over its
rows (_read_variance), formed once per check, and that of bphz f0 is the
covariance pairing sum at lag 0 under |psi_t|^2.  Only the dumped field of
the moment check goes back to physical space, once per check, by the
support inverse (_NoiseSource.inverse): the mean periodogram scattered into
a zero half spectrum of the grid, then kernel._inverse there, the inverse
that SpectralField.to_physical runs.  Transforms per sample, forward +
inverse: 0 + 0 in every check; a moment dump adds 0 + 1 per check.  Every
oracle is read by point_reader too, with 0 transforms per check.
sample_noise, pi_f0 and pi_f0f1 are the physical views of the same draw.

The scaling fit reads f0 alone, on the equal-time line with time
frequencies integrated out (equal_time_density): on the space-time torus
every component shows the smooth-lattice slope, not |y - x|^{2|beta|}.  Its
slope is one gap-form read of that line density, formed once: it draws
nothing and has no ci.

Randomness is counter-based: component c of sample i of a sampler with
seed s is one call for 2 rows |S| standard normals from Philox keyed by
hash(s, (i << 8) | c), the real and imaginary parts of its half spectrum on
S, with exactly the law of physical white noise transformed and shaped
(_NoiseSource).  So estimates are bit-identical however the sample loop is
scheduled or parallelised, and the only reduction over samples is one sum
in sample-index order into a fresh zero array.  A check re-keys one Philox
per sample rather than building a fresh one (_keyed_normals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import check_semigroup_m0
from .errors import ConfigError, NumericError
from .kernel import (
    SpectralField,
    TWO_PI,
    _inverse,
    check_mesh,
    div_symbols,
    dump_field,
    point_reader,
    psi_hat,
    solve_L_div,
    symbol_LLstar,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _sample_key(seed, index):
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (index & _MASK64))


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------


def _mesh_values(evaluator, k0, k1):
    """The covariance evaluator on frequency arrays; one that cannot map
    them is a ConfigError."""
    try:
        return evaluator(k0, k1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"covariance evaluators must map frequency meshes: {exc}") from None


@dataclass(frozen=True)
class NoiseSampler:
    """Gaussian noise on a space-time torus with spectral density FC |Fphi|^2;
    a grid that breaks the mesh rule (kernel.check_mesh) is a NumericError."""

    grid: object
    spec: object
    moll: object
    seed: int

    def __post_init__(self):
        if self.moll.tau <= 0:
            raise ConfigError("mollifier scale must be positive")
        check_semigroup_m0(self.spec, self.moll)
        check_mesh(self.grid, self.spec.m0)

    def density(self):
        """Target density FF = FC |Fphi_tau|^2 on the grid; zero mode dropped.

        Computed once and cached; the returned array is read-only.  The
        covariance evaluator must map the frequency mesh to an array of its
        shape; one that fails on it or returns another shape is a
        ConfigError.  A density that is not finite, and one that underflows
        to zero at every mode (a mollifier scale so large that exp(-tau Q)
        is 0 on the grid), are NumericErrors.
        """
        cached = getattr(self, "_density_cache", None)
        if cached is not None:
            return cached
        k0, *space = self.grid.frequency_mesh()
        k_rad = np.sqrt(sum(np.square(k) for k in space))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fc = _mesh_values(self.spec.evaluator, k0, k_rad)
            if np.shape(fc) != self.grid.spectrum_shape:
                raise ConfigError(f"covariance evaluator gave shape {np.shape(fc)} on a "
                                  f"frequency mesh of shape {self.grid.spectrum_shape}")
            ff = (fc * self.moll.squared_symbol(k0, k_rad)).astype(float)
        ff[(0,) * (self.grid.d + 1)] = 0.0
        if not np.all(np.isfinite(ff)) or np.any(ff < 0):
            raise NumericError("spectral density is not finite and nonnegative")
        if not np.any(ff):
            raise NumericError(f"the spectral density underflows to zero at every mode "
                               f"(tau={self.moll.tau})")
        ff.setflags(write=False)
        object.__setattr__(self, "_density_cache", ff)
        return ff


def _keyed_normals():
    """normals(key, shape): the standard normals Generator(Philox(key=key))
    draws, bit for bit, from one Philox re-keyed per call.

    Re-keying sets the state a fresh Philox starts in: counter 0, key
    (key, 0) and an empty buffer.  Building a Philox per key would also seed
    a SeedSequence from OS entropy on every build.
    """
    bits = np.random.Philox(key=0)
    normal = np.random.Generator(bits).standard_normal
    state = bits.state

    def normals(key, shape):
        state["state"]["key"][0] = key
        bits.state = state
        return normal(shape)

    return normals


class _NoiseSource:
    """The shaped half spectrum of component comp of sample index, drawn on
    the support of the sampler's density alone: source.block(index, comp),
    or scattered into a zero half spectrum of the grid, source(index, comp).

    The support S is the set of spatial columns where the density FF is
    nonzero in some time row, closed under k -> -k; cols are its flat
    columns, a half spectrum viewed as (time rows, spatial columns), and
    mirror[s] is the index in cols of the column of -k for cols[s].  A
    block, density among them, is the (rows, |S|) part on S of a half
    spectrum that is zero off S.  The plane rule of the half spectrum has
    two parts: the c2r weights c(k0) (kernel.SpectralGrid.c2r_weights), and
    the projection P x = (x(k) + conj x(-k)) / 2 on the self-conjugate
    planes k0 = 0, N0/2, x elsewhere (project).

    A draw has the law of physical white noise w, transformed and shaped,
    to_fourier(w) sqrt(FF / cell) = z sqrt(vol FF) with z = W / sqrt(N), W
    the unnormalised DFT of w: unit complex normals, independent over the
    half spectrum except that z(-k) = conj z(k) on the two planes (z real
    where k = -k).  Sample index, component comp, is one keyed call
    normals(key, (rows, |S|, 2)), key = hash(seed, (index << 8) | comp),
    read as a + ib, and its block is P(a + ib) sqrt(vol FF / c): off the
    planes E|a + ib|^2 = 2 = c, on them E|P(a + ib)|^2 = 1 = c.  No
    transform runs, and a sample draws 2 rows |S| normals instead of N.
    Every check draws these blocks and reads them on S; sample_noise takes a
    draw back to the grid, and the moment dump its mean periodogram
    (scatter, inverse).
    """

    def __init__(self, sampler):
        grid = sampler.grid
        rows = grid.spectrum_shape[0]
        space = grid.sizes[1:]
        density = sampler.density().reshape(rows, -1)
        # the flat spatial column of -k for every flat spatial column k
        negated = np.ravel_multi_index(
            tuple(-i % n for i, n in zip(np.indices(space), space)), space).ravel()
        live = np.any(density, axis=0)
        cols = np.flatnonzero(live | live[negated])
        mirror = np.searchsorted(cols, negated[cols])
        self.grid, self.seed = grid, sampler.seed
        self.cols, self.mirror, self.density = cols, mirror, density[:, cols]
        # the same columns as flat indices in Fortran order, the order of
        # the spatial columns of a time-contiguous half spectrum
        self._fcols = np.ravel_multi_index(np.unravel_index(cols, space), space, order="F")
        self._amplitude = np.sqrt(grid.volume * self.density / grid.c2r_weights())
        self._planes = slice(None, None, rows - 1)
        self._shape = (rows, cols.size, 2)
        self._normals = _keyed_normals()

    def restrict(self, spectrum):
        """The block on S of a half spectrum."""
        return np.reshape(spectrum, (self._shape[0], -1))[:, self.cols]

    def project(self, block):
        """P block, in place, returned: (x(k) + conj x(-k)) / 2 on the two
        self-conjugate time planes, the block itself elsewhere."""
        planes = block[self._planes]
        planes += planes[:, self.mirror].conj()
        planes *= 0.5
        return block

    def block(self, index, comp):
        """The shaped block on S of component comp of sample index."""
        z = self._normals(_sample_key(self.seed, (index << 8) | comp), self._shape)
        return self.project(z.view(np.complex128)[..., 0]) * self._amplitude

    def scatter(self, block):
        """The half spectrum of the grid that is block on S and zero off it,
        time-contiguous, so that kernel._inverse can work in it."""
        hat = np.zeros(self.grid.spectrum_shape, dtype=np.complex128, order="F")
        hat.reshape(self._shape[0], -1, order="F")[:, self._fcols] = block
        return hat

    def __call__(self, index, comp):
        return self.scatter(self.block(index, comp))

    def inverse(self, block):
        """Physical values on the grid of scatter(block), by kernel._inverse."""
        return _inverse(self.grid, self.scatter(block), owned=True)


def sample_noise(sampler, index=0):
    """One noise sample: a list of d real mollified components.

    This is the physical view of the keyed draw the checks read in Fourier
    space: component c is the inverse transform of the support draw
    _NoiseSource(sampler)(index, c), the same values bit for bit.  Its law
    is that of white noise shaped by sqrt(FF / cell) in Fourier space.
    """
    grid = sampler.grid
    spectrum = _NoiseSource(sampler)
    return [
        SpectralField(grid, spectrum(index, comp), "fourier").to_physical()
        for comp in range(grid.d)
    ]


# ---------------------------------------------------------------------------
# model components
# ---------------------------------------------------------------------------


def _base_index(grid, x):
    if x is None:
        x = (0,) * (grid.d + 1)
    x = tuple(int(i) for i in x)
    if len(x) != grid.d + 1:
        raise ConfigError(f"base point needs {grid.d + 1} lattice indices")
    return tuple(i % n for i, n in zip(x, grid.sizes))


def pi_f0(noise, x, m0=1.0):
    """Linear component v - v(x) with v = L^{-1} div(noise)."""
    grid = noise[0].grid
    x = _base_index(grid, x)
    v = solve_L_div(noise, m0).values
    return SpectralField(grid, v - v[x], "physical")


def pi_f0f1(noise, x, m0=1.0):
    """Quadratic component: L^{-1} div(pi_f0 . noise), centered.

    The zero mode of the forcing is dropped by the inversion, which is the
    torus substitute for the whole-space decay normalisation.
    """
    grid = noise[0].grid
    x = _base_index(grid, x)
    base = pi_f0(noise, x, m0)
    forcing = [
        SpectralField(grid, base.values * noise[comp].values, "physical")
        for comp in range(grid.d)
    ]
    u = solve_L_div(forcing, m0).values
    return SpectralField(grid, u - u[x], "physical")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McReport:
    """Estimates against oracles, with exact standard errors: each check
    knows the variance of one sample's estimate from the law of the draw."""

    estimator: str
    samples: int
    points: tuple
    estimates: tuple
    standard_errors: tuple
    oracles: tuple
    z_scores: tuple

    def worst_z(self):
        return max(abs(z) for z in self.z_scores)


def _check_samples(n):
    """The sample count of a covariance, moment or bphz check, 4 to 2^56,
    before any draw: _sample_key keeps 64 bits of (i << 8) | comp."""
    if n < 4:
        raise ConfigError(f"a Monte Carlo check needs at least 4 samples, got {n}")
    if n > 1 << 56:
        raise ConfigError(f"a Monte Carlo check has at most 2^56 distinct samples, got {n}")


def _report(estimator, points, n, estimates, oracles, variance):
    """Assemble a report from the mean estimates of n samples at each point
    and the variance of one sample's estimate there: the standard error of
    the mean of n independent draws is sqrt(variance / n)."""
    estimates = np.asarray(estimates, dtype=float)
    se = np.sqrt(np.asarray(variance, dtype=float) / n)
    # a point without spread has z = 0 when it hits its oracle exactly and
    # an infinite z when it misses
    miss = estimates - np.asarray(oracles, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(miss == 0, 0.0, miss / se)
    return McReport(
        estimator=estimator,
        samples=n,
        points=tuple(points),
        estimates=tuple(float(v) for v in estimates),
        standard_errors=tuple(float(v) for v in se),
        oracles=tuple(float(v) for v in oracles),
        z_scores=tuple(float(v) for v in z),
    )


# ---------------------------------------------------------------------------
# checks with same-grid oracles
# ---------------------------------------------------------------------------


def _geometric_offsets(grid, divisor, n_spatial, n_temporal):
    """Lattice offsets along the last spatial axis, then along time: per axis
    the distinct integer parts of n geometric steps from 1 to
    max(2, N // divisor), so every axis has a step however small the grid."""

    def steps(n, count):
        return sorted({int(v) for v in np.geomspace(1, max(2, n // divisor), count)})

    return ([(0,) * grid.d + (j,) for j in steps(grid.sizes[-1], n_spatial)]
            + [(j,) + (0,) * grid.d for j in steps(grid.sizes[0], n_temporal)])


def _power(a, b):
    """Re(a conj b) per mode, from the real and imaginary parts."""
    return a.real * b.real + a.imag * b.imag


def _read_variance(source, weights, power_var):
    """The variance of one sample's read weights @ power, power a block on S
    with variance power_var per mode, from the law of the draw (Isserlis).

    Off the self-conjugate planes the modes are independent, and a mode
    adds w^2 var.  On them the power of k and -k is one variable, as the
    draw is symmetric there, so the pair adds (w_k + w_-k)^2 var; and where
    k = -k the draw is real, whose square has twice the variance of a
    complex normal's |z|^2: 2 w^2 var.  Summing (w_k + w_mirror(k))^2 var / 2
    over every column of a plane gives both."""
    w = weights.reshape(len(weights), *power_var.shape)
    planes = w[:, source._planes]
    pairs = planes + planes[..., source.mirror]
    var = np.square(w[:, 1:-1]).reshape(len(w), -1) @ power_var[1:-1].ravel()
    return var + 0.5 * (np.square(pairs).reshape(len(w), -1)
                        @ power_var[source._planes].ravel())


def _quadratic_check(estimator, points, source, left, right, n_samples, reader):
    """(report, summed power) of a check whose sample is the power
    p = Re(a conj b) per mode of S, a = L . xi_hat and b = R . xi_hat for
    lists L = left and R = right of multipliers on S, one per noise
    component from the first, read through the point_reader reader(fold).

    The components of xi_hat are independent complex normals of variance
    s = vol FF per mode, so p has mean s Re(L . conj R) and variance
    s^2 (|L|^2 |R|^2 + Re((L . conj R)^2)) / 2 (Isserlis); the oracles are
    the read of that mean, and the variance of a sample's read is the
    pairing sum of _read_variance.  With one multiplier on each side,
    p = Re(L conj R) |xi_hat|^2: the fold Re(L conj R) goes into the rows
    (fold 1 otherwise), so a sample is one draw and one square.  A read is
    linear: the powers are summed in sample order into a fresh array, the
    summed power returned, and the check reads that sum once.
    """
    _check_samples(n_samples)
    s = source.grid.volume * source.density
    single = len(left) == len(right) == 1
    if single:
        fold, mean, var = _power(left[0], right[0]), s, s ** 2
    else:
        dot = sum(m * np.conj(n) for m, n in zip(left, right))
        norms = sum(_power(m, m) for m in left) * sum(_power(n, n) for n in right)
        fold, mean, var = 1.0, s * dot.real, s ** 2 * (norms + (dot * dot).real) / 2

    def power(index):
        blocks = [source.block(index, comp) for comp in range(max(len(left), len(right)))]
        if single:
            return _power(blocks[0], blocks[0])
        a = sum(m * z for m, z in zip(left, blocks))
        b = a if right is left else sum(n * z for n, z in zip(right, blocks))
        return _power(a, b)

    read = reader(fold)
    total = np.zeros_like(s)
    for i in range(n_samples):
        total += power(i)
    report = _report(estimator, points, n_samples, read(total) / n_samples, read(mean),
                     _read_variance(source, read.weights, var))
    return report, total * fold


def covariance_check(sampler, lags=None, n_samples=256):
    """E[xi(x) xi(x+r)] against the pairing sum, averaged over base points.

    Each sample's average over base points comes for all lags at once from
    its periodogram |xi_hat|^2 / vol (Wiener-Khinchin), read at the lags by
    kernel.point_reader on the support, and the oracle is the density read
    there the same way: the read of _quadratic_check with L = R = [1], on
    the first noise component.  A lag is read modulo the grid sizes, so
    every default lag exists on any grid; an empty list of lags is a
    ConfigError.
    """
    grid = sampler.grid
    lags = [tuple(int(i) for i in lag)
            for lag in (_geometric_offsets(grid, 4, 14, 6) if lags is None else lags)]
    if not lags:
        raise ConfigError("the covariance check needs at least one lag")
    source = _NoiseSource(sampler)
    return _quadratic_check(
        "covariance", lags, source, [1.0], [1.0], n_samples,
        lambda fold: point_reader(grid, lags, [fold / grid.volume], source.cols))[0]


def _no_base_point(x, check):
    if x is not None:
        raise ConfigError(f"the {check} averages over every base point, so a base point x "
                          f"selects nothing")


def pi_f0_second_moment_check(sampler, x=None, n_samples=256, dump_path=None):
    """E|pi_f0(y)|^2 at y = x + r against the exact Gaussian pairing sum,
    each draw averaged over every base point x.

    The noise law is translation invariant, so the moment depends on the
    separation r alone, and a draw's mean over x of (v(x + r) - v(x))^2 is
    2 (C_v(0) - C_v(r)), C_v the inverse transform of the periodogram
    |P M xi_hat|^2 / vol of v = L^{-1} div xi (Wiener-Khinchin).  M_i are
    the div_symbols multipliers: on the self-conjugate planes the inverse
    real transform keeps the conjugate-symmetric part of M_i xi_hat_i, which
    is xi_hat_i P M_i as xi_hat_i is symmetric there
    (_NoiseSource.project).  The summed periodogram of the samples is read
    once by kernel.point_reader from rows based at 0, the gaps
    C_v(r) - C_v(0) with no cancellation between two reads, and the oracle
    is the same read of the mean periodogram FF sum_i |P M_i|^2, formed
    exactly: a round trip through physical space would leave rounding of
    order 1e-16 max|M_i| at k1 = 0, where M_i is 0 and the density is
    largest, and once tau leaves little density elsewhere that rounding
    outweighs the oracle.  It is the read of _quadratic_check with
    L = R = P M.  An x is a ConfigError: it selects nothing.  With
    dump_path set, the mean of the averaged field,
    2 (C_v(0) - C_v(r)) at every cell r, is written in the binary field
    format, from one support inverse of the mean periodogram.
    """
    _no_base_point(x, "moment check")
    grid = sampler.grid
    separations = _geometric_offsets(grid, 3, 14, 4)
    source = _NoiseSource(sampler)
    mults = [source.project(source.restrict(m)) for m in div_symbols(grid, sampler.spec.m0)]
    zero = (0,) * (grid.d + 1)
    report, total = _quadratic_check(
        "pi_f0_second_moment", separations, source, mults, mults, n_samples,
        lambda fold: point_reader(grid, separations, [-2.0 / grid.volume * fold],
                                  source.cols, base=zero))
    if dump_path is not None:
        covariance = source.inverse(total / (grid.volume * n_samples))
        # 2 (C(0) - C) in place, the same bits as formed in new arrays
        np.subtract(covariance[zero], covariance, out=covariance)
        covariance *= 2.0
        dump_field(SpectralField(grid, covariance, "physical"), dump_path)
    return report


def bphz_triviality_check(sampler, t_list, component="f0", x=None,
                          n_samples=128):
    """MC estimate of the smoothed expectation E[(psi_t * Pi^-)(x)] per t.

    For f0 the integrand is the noise itself and the oracle vanishes.  Its
    values at x are read by kernel.point_reader through the rows W_x psi_t
    on the support, formed once per check: the blocks of the samples are
    summed, and the sum is read once.  The variance of one sample's read is
    E[(psi_t * xi)(x)^2], the covariance check's pairing sum read at the
    zero cell with |psi_t|^2.

    For f0+f1 each draw is averaged over every base point x, as the noise
    law is translation invariant: the mean over x of
    (psi_t * (xi pi_f0,x))(x) = (psi_t * (xi v))(x) - v(x) (psi_t * xi)(x),
    v = L^{-1} div xi and xi its first component, is
    mean(xi v) - mean(v (psi_t * xi)) = (1/vol^2) sum_k c(k0) (1 - psi_t)
    Re(xi_hat conj(P M xi_hat)) over the half spectrum (Parseval), with the
    c2r weights c(k0) and P M the projected div_symbols multipliers of
    pi_f0_second_moment_check.  Both are read at the zero cell by
    kernel.point_reader, once, from the summed power of the samples.  The
    oracle is the same read of the mean, vol FF for |xi_hat|^2: the pairing
    sum (1/vol) sum_k c(k0) (1 - psi_t) Re(P M_1) FF, which vanishes
    whenever the density is even in the spatial frequency.  It is the read
    of _quadratic_check with L = [1] and R = P M.  No transform runs per
    sample, and an x is a ConfigError: it selects nothing.

    An empty t_list is a ConfigError, and a t at which psi_t underflows to
    zero at every nonzero mode is a NumericError: it would read the mean of
    the integrand.  So is, for f0+f1, a t at which 1 - psi_t is zero on the
    whole support (t = 0, say): every draw would read 0, a row that cannot
    fail.
    """
    if component not in ("f0", "f0f1"):
        raise ConfigError(f"component must be f0 or f0f1, got {component!r}")
    if component == "f0f1":
        _no_base_point(x, "bphz f0+f1 check")
    grid = sampler.grid
    x = _base_index(grid, x)
    m0 = sampler.spec.m0
    t_list = [float(t) for t in t_list]
    if not t_list:
        raise ConfigError("the bphz check needs at least one t")
    psis = [psi_hat(t, grid.frequency_mesh(), m0) for t in t_list]
    for t, psi in zip(t_list, psis):
        if not np.any(psi.ravel()[1:]):
            raise NumericError(f"psi_t underflows to zero at every nonzero mode (t={t:g})")
    source = _NoiseSource(sampler)
    zero = (0,) * (grid.d + 1)
    if component == "f0":
        _check_samples(n_samples)
        psis = [source.restrict(psi) for psi in psis]
        read = point_reader(grid, [x], psis, source.cols)
        variance = point_reader(grid, [zero], [psi ** 2 for psi in psis],
                                source.cols)(source.density)
        total = np.zeros(source.density.shape, dtype=np.complex128)
        for i in range(n_samples):
            total += source.block(i, 0)
        return _report("bphz_f0", t_list, n_samples, read(total) / n_samples,
                       [0.0] * len(t_list), variance)
    smoothing = [source.restrict(1.0 - psi) for psi in psis]
    for t, row in zip(t_list, smoothing):
        if not np.any(row):
            raise NumericError(f"1 - psi_t is zero on the whole support (t={t:g}): the "
                               f"f0+f1 read would be 0 in every draw")
    mults = [source.project(source.restrict(m)) for m in div_symbols(grid, m0)]
    return _quadratic_check(
        "bphz_f0f1", t_list, source, [1.0], mults, n_samples,
        lambda fold: point_reader(grid, [zero], [row * fold / grid.volume for row in smoothing],
                                  source.cols))[0]


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


_TAIL_CUT = 1e-18  # the line ends where the mollifier envelope drops below it
_K1_BATCH = 128  # k1 per node array, which holds k1 x steps


def equal_time_density(sampler):
    """Marginal spatial density P(k1) of v at a fixed time, d = 1, on the
    grid's half line k1 = 0, ..., N1/2 (rfftfreq): the integral over the
    real time-frequency line of (2 pi k1)^2 FF(k0, k1) / symbol_LLstar dk0.
    A lattice k0 sum would need ~1e6 time modes to resolve the ridge
    k0 ~ k1^4 across a decade of k1.

    The ridge m0 (2 pi k1)^4 / (2 pi), the modulus of the integrand's branch
    points in k0, and the mollifier's k0_moll can sit thirty decades apart.
    k0 = c sinh u with c = min(ridge, k0_moll) makes the integrand an even
    function of u, analytic for |Im u| < pi/2 and decaying on each line
    |Im u| = a < pi/4, so the trapezoid rule of step h errs by
    O(exp(-2 pi a / h)) (Trefethen and Weideman, SIAM Review 56, 2014).  It
    sums [0, U], U = asinh(k0_max / c) where the envelope
    exp(-(k0 / k0_moll)^2) falls below 1e-18, in an even number of steps,
    8 or more per unit of the largest U in each batch of _K1_BATCH k1.  The
    error estimate, |T_h - T_2h| (T_2h on the even nodes) plus the
    envelope's erfc tail beyond k0_max, is conservative: halving h squares
    the exponential factor, so it is about T_2h's error, far above T_h's.
    It adds the rounding floor 8 eps (1 + x) |P|, x = space_rate (2 pi k1)^8.
    An error above 1e-6 of the result is a NumericError, as are a density
    that underflows to zero at every nonzero k1 and a range that leaves the
    float domain; an evaluator that cannot map the nodes is a ConfigError.
    """
    return _line_density(sampler)[0]


def _line_density(sampler):
    """(P, err): equal_time_density and its error estimate at each k1."""
    if sampler.grid.d != 1:
        raise ConfigError("the equal-time marginal is wired for d = 1")
    m0, n = sampler.spec.m0, sampler.grid.sizes[1]
    k1 = np.fft.rfftfreq(n, d=sampler.grid.boxes[1] / n)[1:]
    if not sampler.moll.time_rate > 0.0:
        raise NumericError("the mollifier's time-frequency scale underflows to zero")
    k0_moll = 1.0 / (TWO_PI * math.sqrt(sampler.moll.time_rate))
    k0_max = math.sqrt(-math.log(_TAIL_CUT)) * k0_moll
    # integral_{k0_max}^inf of the envelope exp(-(k0 / k0_moll)^2), over its value there
    tail_factor = math.erfc(k0_max / k0_moll) * math.sqrt(math.pi) * k0_moll / (2 * _TAIL_CUT)

    def integrand(k0, k1):
        ff = _mesh_values(sampler.spec.evaluator, k0, k1) * sampler.moll.squared_symbol(k0, k1)
        return (TWO_PI * k1) ** 2 * ff / symbol_LLstar((k0, k1), m0)

    c = np.minimum(m0 * (TWO_PI * k1) ** 4 / TWO_PI, k0_moll)
    total, err = np.empty_like(k1), np.empty_like(k1)
    # values beyond the float range are refused below; an envelope that underflows is 0
    with np.errstate(all="ignore"):
        reach = np.arcsinh(k0_max / c)  # U; the ridge grows with k1, so U falls
        if not np.all(np.isfinite(reach)):
            raise NumericError(f"k0_max / ridge {k0_max:g} / {c[0]:g} at k1 = {k1[0]:g} overflows")
        for lo in range(0, k1.size, _K1_BATCH):
            part = slice(lo, lo + _K1_BATCH)
            steps = 2 * math.ceil(4.0 * reach[part].max())  # even, 8 or more per unit of u
            h = reach[part] / steps
            u = h[:, None] * np.arange(steps + 1)
            g = integrand(c[part, None] * np.sinh(u), k1[part, None]) * c[part, None] * np.cosh(u)
            g[:, [0, -1]] *= 0.5
            total[part] = h * g.sum(axis=1)
            err[part] = np.abs(total[part] - 2.0 * h * g[:, ::2].sum(axis=1))
        err += np.abs(integrand(np.float64(k0_max), k1)) * tail_factor
        x = sampler.moll.space_rate * (TWO_PI * k1) ** 8  # exp(-x) is off by x eps relative
        err += np.where(total == 0.0, 0.0, 8.0 * np.finfo(float).eps * (1.0 + x) * np.abs(total))
    bad = ~np.isfinite(total + err) | (err > np.maximum(1e-6 * np.abs(total), 1e-280))
    if np.any(bad):
        j = np.argmax(bad)
        raise NumericError(f"frequency-line integral error {err[j]:g} too large for {total[j]:g}")
    if not np.any(total):
        raise NumericError(f"the line density underflows to zero at every nonzero k1 "
                           f"(tau={sampler.moll.tau})")
    return np.concatenate([[0.0], 2.0 * total]), np.concatenate([[0.0], 2.0 * err])


def fit_log_slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigError("slope fit needs at least two points")
    if any(x <= 0 for x in xs) or any(y == 0 for y in ys):
        raise ConfigError("slope fit needs positive x and nonzero y")
    lx = np.log(xs) - np.mean(np.log(xs))
    return float(lx / (lx @ lx) @ np.log(np.abs(ys)))


def _separation_indices(grid, window):
    if len(window) != 2:
        raise ConfigError(f"window needs two values lo,hi, got {len(window)}: {window}")
    lo, hi = window
    if not 0 < lo < hi:
        raise ConfigError(f"window must satisfy 0 < lo < hi, got {window}")
    if math.log10(hi / lo) < 0.5:
        raise ConfigError(
            f"separation window {window} spans less than half a decade"
        )
    delta = grid.boxes[-1] / grid.sizes[-1]
    j_lo = max(1, math.ceil(lo / delta))
    j_hi = math.floor(hi / delta)
    if j_hi >= grid.sizes[-1] // 2:
        raise ConfigError("window reaches beyond half the spatial box")
    if j_hi <= j_lo:
        raise ConfigError("window contains no lattice separations")
    js = sorted({int(v) for v in np.geomspace(j_lo, j_hi, 12)})
    if len(js) < 4:
        raise ConfigError("window is too narrow for a slope fit")
    return js


def scaling_fit(sampler, window):
    """The log-log slope of the equal-time second moment E|Pi_f0(y)|^2
    against |y - x|, on separations inside ``window``.

    The fit reads the equal-time spatial marginal (equal_time_density,
    d = 1), which the space-time torus cannot resolve.  A line power P has
    mean squared increments 2 (G(0) - G(r_j)) = R P at r_j = j L / n, G its
    inverse transform, with R_jk = (4 / L) c(k) sin^2(pi k j / n) in gap form
    (c the c2r weight).  The slope is that of R P for the line density P,
    formed once: nothing is drawn.  ``window`` must span half a decade and
    start at or above the mollification scale space_rate^(1/8) (tau^(1/8)
    at m0 = 1), below which the field is smooth.
    """
    js = _separation_indices(sampler.grid, window)
    smooth_below = sampler.moll.space_rate ** 0.125
    if window[0] < smooth_below:
        raise ConfigError(f"window starts at {window[0]:g}, below the mollification "
                          f"scale space_rate^(1/8) = {smooth_below:g}")
    length, n = sampler.grid.boxes[-1], sampler.grid.sizes[-1]
    c = np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]
    # sin^2 has period pi, so k j reduces mod n exactly, before rounding
    rows = 4.0 / length * c * np.sin(np.pi / n * (np.outer(js, np.arange(n // 2 + 1)) % n)) ** 2
    # against j: a log-log slope ignores the scale L / n
    return fit_log_slope(js, rows @ equal_time_density(sampler))
