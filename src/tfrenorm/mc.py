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
alone: the periodogram at the lags in the covariance check, pi_f0 at its
cells in the moment check (as gaps from the base point), psi_t * xi at the
base point for bphz f0 (through rows W psi_t formed once per check); each
is one small real matvec.  A draw goes back to physical space only where a
pointwise product or a full field needs it: xi pi_f0 in the bphz f0+f1
check, smoothed at the base point by kernel.smoothing_reader, and the
dumped field of the moment check.  It goes back by the support inverse
(_NoiseSource.inverse): the block scattered into a zero half spectrum of
an output lattice, then kernel._inverse there, the inverse that
SpectralField.to_physical runs.  A field whose band is known goes back to
the coarsest lattice its reader needs: the dump to the grid, the two
factors of xi pi_f0 to the product lattice of S, N0 times M_i points over
the same boxes.  A draw carries the band of S, K_i the largest |k_i| on
its columns (_NoiseSource.band); a product has the sum of its factors'
bands.  A product read up to a band K_out, the next reader's
(kernel.smoothing_band for a smoothing read), is formed on the smallest
even 5-smooth M_i > K_a + K_b + K_out (_lattice_size, Orszag's rule),
where its Fourier coefficients on the read band are its coefficients on
the grid; with no reader named, K_out is the product's band, M_i > 4 K_i.
M_i is capped at N_i: there the product is the grid's own, as the physical
path forms it, and _NoiseSource.folded reports how far its band folds onto
the read band.  Transforms per sample at d = 1, forward + inverse:
covariance 0 + 0, moment 0 + 0 (0 + 1 on the grid with a dump), bphz f0
0 + 0, bphz f0+f1 0 + 2 on M_i > 2 K_i + K_out points.  Every
oracle is read by point_reader too, with 0 transforms per check.
sample_noise, pi_f0 and pi_f0f1 are the physical views of the same draw.

The scaling fit reads f0 alone, on the equal-time line with time
frequencies integrated out (equal_time_density, one trapezoid sum in u per
k1 after k0 = c sinh u): on the space-time torus every component shows the
smooth-lattice slope, not |y - x|^{2|beta|}.  Its exact slope and its
samples are one read, 2 (G(0) - G(r)) with G the inverse transform of the
line density or of a sample's periodogram (Wiener-Khinchin).

Randomness is counter-based: component c of sample i of a sampler with
seed s is one call for 2 rows |S| standard normals from Philox keyed by
hash(s, (i << 8) | c), the real and imaginary parts of its half spectrum on
S, with exactly the law of physical white noise transformed and shaped
(_NoiseSource).  So estimates are bit-identical however the sample loop is
scheduled or parallelised, and the only reduction over samples is a
fixed-order pairwise sum.  A check re-keys one Philox per sample rather
than building a fresh one (_keyed_normals).
"""

from __future__ import annotations

import csv
import io
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
    column_wavenumbers,
    div_symbols,
    dump_field,
    lattice_phase,
    make_grid,
    point_reader,
    psi_hat,
    smoothing_band,
    smoothing_reader,
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


def _pairwise_sum(parts):
    """Deterministic pairwise reduction; order fixed by the input order."""
    items = list(parts)
    if not items:
        raise ConfigError("pairwise sum needs at least one term")
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


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
    """Gaussian noise on a space-time torus with spectral density FC |Fphi|^2."""

    grid: object
    spec: object
    moll: object
    seed: int

    def __post_init__(self):
        if self.moll.tau <= 0:
            raise ConfigError("mollifier scale must be positive")
        check_semigroup_m0(self.spec, self.moll)

    def density(self):
        """Target density FF = FC |Fphi_tau|^2 on the grid; zero mode dropped.

        Computed once and cached; the returned array is read-only.  The
        covariance evaluator must map the frequency mesh to an array of its
        shape; one that fails on it or returns another shape is a
        ConfigError.  A mesh that breaks the mesh rule (kernel.check_mesh:
        boxes so small that symbol_LLstar overflows), a density that is not
        finite, and one that underflows to zero at every mode (a mollifier
        scale so large that exp(-tau Q) is 0 on the grid) are NumericErrors.
        """
        cached = getattr(self, "_density_cache", None)
        if cached is not None:
            return cached
        check_mesh(self.grid, self.spec.m0)
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
    or scattered into a zero half spectrum of the output lattice
    self.lattice, source(index, comp).

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

    The output lattice is the grid, or with product = p the lattice on which
    a product of 1 + p fields on S is formed and then read up to read_band
    (K_out per spatial axis; None reads the product's whole band): N0 times
    M_i points over the same boxes, M_i from _lattice_size with 1 + p bands
    K_i (self.band, the largest |k_i| on S), and self.folded its report.
    """

    def __init__(self, sampler, product=False, read_band=None):
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
        self._amplitude = np.sqrt(grid.volume * self.density / grid.c2r_weights())
        self._planes = slice(None, None, rows - 1)
        self._shape = (rows, cols.size, 2)
        self._normals = _keyed_normals()
        # the signed integer wavenumbers of the columns of S, per spatial axis
        self.wavenumbers = column_wavenumbers(space, cols)
        # K_i, the largest |k_i| over the columns of S: the band of a draw
        self.band = tuple(int(np.max(np.abs(w))) for w in self.wavenumbers)
        sizes = [_lattice_size((k,) * (1 + product), k_out, n) if product else (n, 0)
                 for k, k_out, n in zip(self.band, read_band or (None,) * grid.d, space)]
        space_out, self.folded = (tuple(v) for v in zip(*sizes))
        self.lattice = make_grid(grid.d, (grid.sizes[0],) + space_out, grid.boxes)
        # the flat spatial column of each column of S on the output lattice
        self._lattice_cols = np.ravel_multi_index(
            tuple(w % m for w, m in zip(self.wavenumbers, space_out)), space_out)

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
        """block on S and zero off it, on self.lattice: k at k mod M_i."""
        hat = np.zeros(self.lattice.spectrum_shape, dtype=np.complex128)
        hat.reshape(self._shape[0], -1)[:, self._lattice_cols] = block
        return hat

    def __call__(self, index, comp):
        return self.scatter(self.block(index, comp))

    def phase(self, cell):
        """e^{2 pi i k x} on the columns of S for the spatial cell x
        (kernel.lattice_phase, exact in integer turns): a block times it is
        the block of its field translated by -x, which puts x at the
        spatial origin of any lattice."""
        return lattice_phase(self.grid.sizes[1:], self.wavenumbers, [cell]).reshape(-1)

    def inverse(self, block):
        """Physical values on self.lattice of the half spectrum that is block
        on S and zero off it: kernel._inverse of the scattered block, exact on
        the grid and on the product lattice of S.  The Riemann normalisation
        makes f(x) = (1/vol) sum_k c(k0) hat(k) e^{2 pi i k x} independent of
        the lattice.  Where M_i < N_i, M_i > K_a + K_b + K_out >= 2 K_i puts
        distinct columns of S on distinct lattice columns, none on its
        Nyquist row; -k mod M_i = -(k mod M_i) keeps conjugate pairs; and the
        irfft over time applies the plane rule.  A product of such values is
        then exact at the lattice points, and its Fourier coefficients are
        the grid's on the read band |k_i| <= K_out (_lattice_size).  Where the
        exact lattice would exceed the grid, M_i = N_i: the product is the
        grid's own, as the physical path forms it, and self.folded[i] > 0
        says how far its band folds onto the read band.
        """
        return _inverse(self.lattice, self.scatter(block), owned=True)


def _five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _lattice_size(bands, read_band, n):
    """(M, folded) on an axis: M points for the product of fields of the
    given bands read up to read_band, the smallest even 5-smooth
    M > sum(bands) + read_band capped at the grid's n; read_band None reads
    the product's whole band, sum(bands).

    The product has band B = sum(bands), and on M points its wavenumber k
    lands on k mod M, which for M > B + read_band is a read wavenumber
    |k mod M| <= read_band only when it is k itself (Orszag's rule; the
    3/2 rule when read_band = B / 2).  folded = max(0, B + read_band + 1 - M)
    is 0 below the cap; for B < M it counts the k > 0 that land on another
    read wavenumber (as many k < 0 do).  A live Nyquist column, K = n / 2,
    gives M = n with folded > 0.  Fields of one support, band K each, have
    sum(bands) >= 2K, so M also puts distinct columns on distinct ones.
    """
    need = sum(bands) + (sum(bands) if read_band is None else read_band)
    m = need + 2 - need % 2
    while m < n and not _five_smooth(m):
        m += 2
    return min(m, n), max(0, need + 1 - min(m, n))


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
    """Estimates against oracles; standard errors from batch means."""

    estimator: str
    samples: int
    points: tuple
    estimates: tuple
    standard_errors: tuple
    oracles: tuple
    z_scores: tuple

    def worst_z(self):
        return max(abs(z) for z in self.z_scores)

    def to_dict(self):
        return {
            "estimator": self.estimator,
            "samples": self.samples,
            "points": [
                list(p) if hasattr(p, "__len__") else p for p in self.points
            ],
            "estimates": list(self.estimates),
            "standard_errors": list(self.standard_errors),
            "oracles": list(self.oracles),
            "z_scores": list(self.z_scores),
        }

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["point", "estimate", "standard_error", "oracle", "z"])
        for row in zip(
            self.points,
            self.estimates,
            self.standard_errors,
            self.oracles,
            self.z_scores,
        ):
            writer.writerow(row)
        return buf.getvalue()


def _batch_report(estimator, points, per_sample, oracles):
    """Assemble a report from per-sample estimates (samples x points), with
    batch-means errors over 16 batches (fewer below 32 samples)."""
    per_sample = np.asarray(per_sample, dtype=float)
    n = per_sample.shape[0]
    if n < 4:
        raise ConfigError("batch-means errors need at least 4 samples")
    batches = min(16, n // 2)
    estimates = _pairwise_sum(list(per_sample)) / n
    cut = (n // batches) * batches
    means = per_sample[:cut].reshape(batches, -1, per_sample.shape[1]).mean(axis=1)
    se = means.std(axis=0, ddof=1) / math.sqrt(batches)
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


def _default_lags(grid):
    return _geometric_offsets(grid, 4, 14, 6)


def covariance_check(sampler, lags=None, n_samples=256):
    """E[xi(x) xi(x+r)] against the pairing sum, averaged over base points.

    Each sample's average over base points comes for all lags at once from
    its periodogram |xi_hat|^2 / vol (Wiener-Khinchin), read at the lags by
    kernel.point_reader on the support, and the oracle is the density read
    there the same way.  A lag is read modulo the grid sizes, so every
    default lag exists on any grid; an empty list of lags is a ConfigError.
    """
    grid = sampler.grid
    lags = [tuple(int(i) for i in lag)
            for lag in (_default_lags(grid) if lags is None else lags)]
    if not lags:
        raise ConfigError("the covariance check needs at least one lag")
    source = _NoiseSource(sampler)
    read = point_reader(grid, lags, cols=source.cols)
    oracles = read(source.density)
    rows = [read(np.abs(source.block(i, 0)) ** 2 / grid.volume)
            for i in range(n_samples)]
    return _batch_report("covariance", lags, rows, oracles)


def pi_f0_second_moment_check(sampler, x=None, n_samples=256, dump_path=None):
    """E|pi_f0(y)|^2 against the exact Gaussian pairing sum.

    The oracle is 2(G(0) - G(y-x)) with G the inverse transform of the
    lattice density of v = L^{-1} div xi: FF sum_i |P M_i|^2 over the
    div_symbols M_i.  On the self-conjugate planes the inverse real
    transform keeps the conjugate-symmetric part of M_i xi_hat_i, which is
    xi_hat_i P M_i as xi_hat_i is symmetric there (_NoiseSource.project).
    It is formed exactly: a round trip through physical space would leave
    rounding of order 1e-16 max|M_i| at k1 = 0, where M_i is 0 and the
    density is largest, and once tau leaves little density elsewhere that
    rounding outweighs the oracle.  The gaps G(y-x) - G(0), and each
    sample's v(y) - v(x) from its block sum_i M_i xi_hat_i on the support,
    are read by kernel.point_reader from rows based at 0 and at x: no
    transform, and no cancellation between two reads.  With dump_path set,
    the full second-moment field is written in the binary field format,
    from one support inverse per sample.
    """
    grid = sampler.grid
    x = _base_index(grid, x)
    separations = _geometric_offsets(grid, 3, 14, 4)
    source = _NoiseSource(sampler)
    mults = [source.restrict(m) for m in div_symbols(grid, sampler.spec.m0)]
    mult_sq = sum(np.abs(source.project(m.copy())) ** 2 for m in mults)
    zero = (0,) * (grid.d + 1)
    g_gap = point_reader(grid, separations, cols=source.cols, base=zero)
    oracles = -2.0 * g_gap(source.density * mult_sq)
    cells = [tuple(xi + si for xi, si in zip(x, sep)) for sep in separations]
    read = point_reader(grid, cells, cols=source.cols, base=x)
    rows = []
    mean_sq = None if dump_path is None else np.zeros(grid.sizes)
    for i in range(n_samples):
        v_hat = sum(m * source.block(i, c) for c, m in enumerate(mults))
        rows.append(read(v_hat) ** 2)
        if mean_sq is not None:
            v = source.inverse(v_hat)
            mean_sq += (v - v[x]) ** 2
    if dump_path is not None:
        dump_field(SpectralField(grid, mean_sq / n_samples, "physical"),
                   dump_path)
    return _batch_report("pi_f0_second_moment", separations, rows, oracles)


def bphz_triviality_check(sampler, t_list, component="f0", x=None,
                          n_samples=128):
    """MC estimate of the smoothed expectation E[(psi_t * Pi^-)(x)] per t.

    For f0 the integrand is the noise itself and the oracle vanishes; for
    f0+f1 the oracle is the pairing sum
    (1/vol) sum_k (1 - psi_t(k)) 2 pi i k1 FF(k) / symbol_L(k) at r = 0, which
    vanishes whenever the density is even in the spatial frequency, and is
    read at the zero cell by kernel.point_reader.  The f0 values at x are
    read from the noise block by kernel.point_reader through the rows
    W_x psi_t on the support, formed once per check, so a sample is one
    real matvec.  The f0+f1 integrand xi pi_f0 is formed in physical space
    on the product lattice of the support, from one support inverse each
    of xi and of pi_f0 (_NoiseSource.inverse: the block scattered onto that
    lattice, then kernel._inverse there), and its smoothed values at x are
    read from there by kernel.smoothing_reader on that lattice, one real
    matvec for every t, with no transform back.  That read sees the band
    K_out = kernel.smoothing_band(grid, t_list, m0), where psi_t, at its
    largest over k0 and t_list, exceeds eps of its peak.  The product of two
    fields of band K is formed on M_i > 2 K_i + K_out points, so its Fourier
    coefficients on the read band are its coefficients on the grid, and
    psi_t takes the same values on them: the read is the grid's, to
    rounding.  Where that lattice would exceed the grid, the product is the
    grid's own, as the physical path forms it, and _NoiseSource.folded
    reports the fold.  The spatial cell of x need not be a point of that
    lattice, so both blocks are first translated by -x through the phases
    e^{2 pi i k x}, exact in integer turns (_NoiseSource.phase), and read
    at (x0, 0, ..., 0).  An
    empty t_list is a ConfigError, and a t at which psi_t underflows to
    zero at every nonzero mode is a NumericError: it would read the mean of
    the integrand.
    """
    if component not in ("f0", "f0f1"):
        raise ConfigError(f"component must be f0 or f0f1, got {component!r}")
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
    source = _NoiseSource(sampler, product=component == "f0f1",
                          read_band=smoothing_band(grid, t_list, m0))
    if component == "f0":
        oracles = [0.0 for _ in t_list]
        read = point_reader(grid, [x], [source.restrict(psi) for psi in psis], source.cols)

        def sample(i):
            return read(source.block(i, 0))
    else:
        mults = [source.restrict(m) for m in div_symbols(grid, m0)]
        zero = (0,) * (grid.d + 1)
        read_zero = point_reader(grid, [zero], [source.restrict(1.0 - psi) for psi in psis],
                                 source.cols)
        oracles = list(read_zero(mults[0] * source.density))
        # x's spatial cell may be no point of the product lattice
        shift = source.phase(x[1:])
        mults = [m * shift for m in mults]
        at = x[:1] + (0,) * grid.d
        smooth = smoothing_reader(source.lattice, t_list, at, m0)

        def sample(i):
            blocks = [source.block(i, c) for c in range(grid.d)]
            piece = source.inverse(sum(m * b for m, b in zip(mults, blocks)))
            piece -= piece[at]
            return smooth(piece * source.inverse(blocks[0] * shift))

    rows = [sample(i) for i in range(n_samples)]
    return _batch_report(f"bphz_{component}", t_list, rows, oracles)


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
    that underflows to zero at every nonzero k1, a range that leaves the
    float domain and a grid that breaks the mesh rule (kernel.check_mesh).
    An evaluator that cannot map the node arrays is a ConfigError.
    """
    return _line_density(sampler)[0]


def _line_density(sampler):
    """(P, err): equal_time_density and its error estimate at each k1."""
    if sampler.grid.d != 1:
        raise ConfigError("the equal-time marginal is wired for d = 1")
    m0, n = sampler.spec.m0, sampler.grid.sizes[1]
    check_mesh(sampler.grid, m0)
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
    lx = [math.log(x) for x in xs]
    ly = [math.log(abs(y)) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


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


def scaling_fit(sampler, window, n_samples=1024, bootstrap=200):
    """(exponent, ci, exact_slope): log-log slopes of the equal-time second
    moment E|Pi_f0(y)|^2 against |y - x|, on separations inside ``window``.

    The fit samples the equal-time spatial marginal (equal_time_density,
    d = 1), which the space-time torus cannot resolve.  exponent is the
    slope of the mean over n_samples draws, draw i the line density's
    shaping of the keyed normals (i << 8) | 0x5C; ci is the half-width of
    a 95% bootstrap interval over samples; exact_slope is the slope of the
    pairing sum 2 (G(0) - G(r)), G the inverse transform of the line
    density.  A draw's mean squared increment is the same read of its
    periodogram |rfft(white)|^2 / n times the line density, whose mean over
    draws is the line density.  ``window`` (lo, hi) must span half a decade
    and start at or above the mollification scale space_rate^(1/8),
    tau^(1/8) at m0 = 1: below it every draw is smooth and the bootstrap
    cannot move the slope.
    """
    if bootstrap < 2:
        raise ConfigError(f"a bootstrap interval needs 2 or more resamples, got {bootstrap}")
    if n_samples < 4:
        raise ConfigError(f"a scaling fit needs at least 4 samples, got {n_samples}")
    js = _separation_indices(sampler.grid, window)
    check_mesh(sampler.grid, sampler.spec.m0)  # first, as in every layer; then the window
    smooth_below = sampler.moll.space_rate ** 0.125
    if window[0] < smooth_below:
        raise ConfigError(f"window starts at {window[0]:g}, below the mollification "
                          f"scale space_rate^(1/8) = {smooth_below:g}")
    length, n = sampler.grid.boxes[-1], sampler.grid.sizes[-1]
    p_density = equal_time_density(sampler)
    seps = np.array(js) * (length / n)

    def structure(power):
        """2 (G(0) - G(r)) at the separations, G the inverse transform of
        the line power (a density on k1 = 0, ..., n/2)."""
        g = np.fft.irfft(power, n) * (n / length)
        return 2.0 * (g[0] - g[js])

    exact_slope = fit_log_slope(seps, structure(p_density))
    normals = _keyed_normals()
    rows = np.empty((n_samples, len(js)))
    for i in range(n_samples):
        white = normals(_sample_key(sampler.seed, (i << 8) | 0x5C), n)
        rows[i] = structure(np.abs(np.fft.rfft(white)) ** 2 * p_density / n)
    mean = _pairwise_sum(list(rows)) / n_samples
    exponent = fit_log_slope(seps, mean)
    rng = np.random.Generator(
        np.random.Philox(key=_sample_key(sampler.seed, 0xB00))
    )
    slopes = np.empty(bootstrap)
    for b in range(bootstrap):
        pick = rng.integers(0, n_samples, n_samples)
        slopes[b] = fit_log_slope(seps, rows[pick].mean(axis=0))
    lo, hi = np.quantile(slopes, [0.025, 0.975])
    return exponent, float((hi - lo) / 2.0), exact_slope
