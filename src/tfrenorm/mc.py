"""Monte Carlo layer: mollified noise, the two lowest model components,
and statistical checks against deterministic same-grid pairing oracles.

The ensemble is the Gaussian member of the admissible class, so every
second moment reported here has an exact oracle given by a Fourier pairing
sum over the very same lattice the samples live on -- grid distortion then
cancels in the comparison and the z-scores measure only sampling noise.
The moment oracle squares the kernel.div_symbols multipliers after the
projection the inverse real transform applies to them: that projection, not
the bare multiplier, is what reaches a real sample.

Randomness is counter-based: sample i of a sampler with seed s draws from
Philox keyed by hash(s, i), so estimates are bit-identical however the
sample loop is scheduled or parallelised, and the only reduction over
samples is a fixed-order pairwise sum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import _LOG_TAIL, _TAIL_CUT, _legendre, check_semigroup_m0, fit_log_slope
from .errors import ConfigError, NumericError
from .kernel import (
    SpectralField,
    TWO_PI,
    div_symbols,
    dump_field,
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

        Computed once and cached; the returned array is read-only.
        """
        cached = getattr(self, "_density_cache", None)
        if cached is not None:
            return cached
        mesh = self.grid.frequency_mesh()
        k0 = mesh[0]
        k_rad = np.sqrt(sum(np.square(m) for m in mesh[1:]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ff = self.spec.evaluator(k0, k_rad) * self.moll.squared_symbol(
                k0, k_rad
            )
        ff = np.broadcast_to(ff, self.grid.spectrum_shape).astype(float)
        ff[(0,) * (self.grid.d + 1)] = 0.0
        if not np.all(np.isfinite(ff)) or np.any(ff < 0):
            raise NumericError("spectral density is not finite and nonnegative")
        ff.setflags(write=False)
        object.__setattr__(self, "_density_cache", ff)
        return ff


def sample_noise(sampler, index=0):
    """One noise sample: a list of d real mollified components.

    Component c of sample i draws physical white noise from a Philox
    stream keyed by (seed, i, c), so any subset of samples can be generated
    in any order, and shapes its half spectrum by sqrt(FF / cell), which
    gives E|xi_hat(k)|^2 = vol FF(k) at every mode.
    """
    grid = sampler.grid
    scale = np.sqrt(sampler.density() / grid.cell)
    comps = []
    for comp in range(grid.d):
        key = _sample_key(sampler.seed, (index << 8) | comp)
        rng = np.random.Generator(np.random.Philox(key=key))
        white = SpectralField(grid, rng.standard_normal(grid.sizes), "physical")
        hat = white.to_fourier().values * scale
        comps.append(SpectralField(grid, hat, "fourier").to_physical())
    return comps


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

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1)

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


def _density_transform(grid, density):
    """(1/vol) sum_k density(k) e^{2 pi i k r} on the lattice, for a density
    given on the half spectrum."""
    return SpectralField(grid, density, "fourier").to_physical().values


def _default_lags(grid):
    n_sp = grid.sizes[-1]
    n_t = grid.sizes[0]
    spatial = [
        (0,) * grid.d + (j,)
        for j in sorted({int(v) for v in np.geomspace(1, max(2, n_sp // 4), 14)})
    ]
    temporal = [
        (j,) + (0,) * grid.d
        for j in sorted({int(v) for v in np.geomspace(1, max(2, n_t // 4), 6)})
    ]
    return spatial + temporal


def covariance_check(sampler, lags=None, n_samples=256):
    """E[xi(x) xi(x+r)] against the pairing sum, averaged over base points.

    Each sample's average over base points comes for all lags at once from
    its periodogram |xi_hat|^2 / vol (Wiener-Khinchin).  A lag is read
    modulo the grid sizes, so every default lag exists on any grid.
    """
    grid = sampler.grid
    lags = [tuple(int(i) for i in lag) for lag in (lags or _default_lags(grid))]
    cells = [tuple(i % n for i, n in zip(lag, grid.sizes)) for lag in lags]
    oracle_field = _density_transform(grid, sampler.density())
    oracles = [oracle_field[cell] for cell in cells]
    rows = []
    for i in range(n_samples):
        xi_hat = sample_noise(sampler, i)[0].to_fourier().values
        corr = _density_transform(grid, np.abs(xi_hat) ** 2 / grid.volume)
        rows.append([float(corr[cell]) for cell in cells])
    return _batch_report("covariance", lags, rows, oracles)


def pi_f0_second_moment_check(sampler, x=None, n_samples=256, dump_path=None):
    """E|pi_f0(y)|^2 against the exact Gaussian pairing sum.

    The oracle is 2(G(0) - G(y-x)) with G the inverse transform of the
    lattice density of v = L^{-1} div xi: FF sum_i |P M_i|^2 over the
    div_symbols M_i, P a physical round trip.  On the self-conjugate planes
    the inverse real transform keeps the conjugate-symmetric part of
    M_i xi_hat_i, which is xi_hat_i P M_i as xi_hat_i is symmetric there.
    With dump_path set, the full second-moment field is written in the
    binary field format.
    """
    grid = sampler.grid
    x = _base_index(grid, x)
    separations = [
        (0,) * grid.d + (j,)
        for j in sorted({int(v) for v in np.geomspace(1, grid.sizes[-1] // 3, 14)})
    ]
    separations += [
        (j,) + (0,) * grid.d
        for j in sorted({int(v) for v in np.geomspace(1, max(2, grid.sizes[0] // 3), 4)})
    ]
    mult_sq = sum(
        np.abs(SpectralField(grid, m, "fourier").to_physical().to_fourier().values) ** 2
        for m in div_symbols(grid, sampler.spec.m0)
    )
    g_field = _density_transform(grid, sampler.density() * mult_sq)
    zero = (0,) * (grid.d + 1)
    oracles = [
        2.0 * (g_field[zero] - g_field[tuple(si % n for si, n in zip(sep, grid.sizes))])
        for sep in separations
    ]
    rows = []
    mean_sq = None
    for i in range(n_samples):
        noise = sample_noise(sampler, i)
        comp = pi_f0(noise, x, sampler.spec.m0).values
        sq = comp**2
        mean_sq = sq if mean_sq is None else mean_sq + sq
        rows.append(
            [
                float(sq[tuple((xi + si) % n for xi, si, n in
                               zip(x, sep, grid.sizes))])
                for sep in separations
            ]
        )
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
    vanishes whenever the density is even in the spatial frequency.
    """
    if component not in ("f0", "f0f1"):
        raise ConfigError(f"component must be f0 or f0f1, got {component!r}")
    grid = sampler.grid
    x = _base_index(grid, x)
    t_list = [float(t) for t in t_list]
    psis = [psi_hat(t, grid.frequency_mesh(), sampler.spec.m0) for t in t_list]
    if component == "f0":
        oracles = [0.0 for _ in t_list]
    else:
        mult = div_symbols(grid, sampler.spec.m0)[0]
        zero = (0,) * (grid.d + 1)
        ff = sampler.density()
        oracles = [
            float(_density_transform(grid, (1.0 - psi) * mult * ff)[zero])
            for psi in psis
        ]
    rows = []
    for i in range(n_samples):
        noise = sample_noise(sampler, i)
        if component == "f0":
            base = noise[0]
        else:
            piece = pi_f0(noise, x, sampler.spec.m0).values
            base = SpectralField(grid, piece * noise[0].values, "physical")
        base_hat = base.to_fourier().values
        rows.append([
            float(SpectralField(grid, base_hat * psi, "fourier").to_physical().values[x])
            for psi in psis
        ])
    return _batch_report(f"bphz_{component}", t_list, rows, oracles)


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


_PANEL_NODES = 32  # Gauss-Legendre nodes per panel; the check rule has twice as many


def equal_time_density(sampler, k_values=None):
    """Marginal spatial density P(k1) of v at a fixed time, d = 1.

    P(k1) = integral over the real time-frequency line of
    (2 pi k1)^2 FF(k0, k1) / symbol_LLstar dk0.  A lattice k0 sum is the
    wrong object here: resolving the frequency ridge k0 ~ k1^4 across a
    decade of k1 would take ~1e6 time modes, while the line integral is
    cheap and is what the whole-space statements are about.  k_values
    defaults to the grid's half line 0, ..., N1/2 (rfftfreq).

    The integrand mixes scales that can sit ten decades apart (the
    dispersion ridge and the mollifier rolloff), so the half line k0 > 0
    is cut into decade panels starting at the smaller scale, each taken by
    Gauss-Legendre.  The last panel ends at k0_max, where the mollifier
    envelope exp(-(2 pi k0 scale)^2) drops below 1e-18; beyond it the
    integrand is bounded by its k0_max value over that envelope times the
    envelope's erfc tail.  The error estimate is that bound plus the move
    from the 32- to the 64-node rule, and an error above 1e-6 of the
    result is a NumericError.
    """
    if sampler.grid.d != 1:
        raise ConfigError("the equal-time marginal is wired for d = 1")
    if k_values is None:
        n = sampler.grid.sizes[1]
        k_values = np.fft.rfftfreq(n, d=sampler.grid.boxes[1] / n)
    k_values = np.asarray(k_values, dtype=float)
    m0 = sampler.spec.m0
    # the time-frequency envelope of the mollifier is exp(-(2 pi k0 scale)^2)
    scale = math.sqrt(sampler.moll.time_rate)
    if not scale > 0.0:
        raise NumericError("the mollifier's time-frequency scale underflows to zero")
    k0_moll = 1.0 / (TWO_PI * scale)
    k0_max = math.sqrt(_LOG_TAIL) * k0_moll
    # integral_{k0_max}^inf of the envelope, over its value at k0_max
    tail_factor = (
        math.erfc(math.sqrt(_LOG_TAIL)) * math.sqrt(math.pi)
        / (2.0 * TWO_PI * scale * _TAIL_CUT)
    )

    def integrand(k0, k1):
        ff = sampler.spec.evaluator(k0, k1) * sampler.moll.squared_symbol(k0, k1)
        return (TWO_PI * k1) ** 2 * ff / symbol_LLstar((k0, k1), m0)

    out = np.zeros_like(k_values)
    for mag in np.unique(np.abs(k_values[k_values != 0.0])):
        ridge = m0 * (TWO_PI * mag) ** 4 / TWO_PI
        if not ridge > 0.0:
            raise NumericError(f"the dispersion ridge at k1 = {mag:g} underflows to zero")
        edges = [0.0, min(ridge, k0_moll)]
        while 10.0 * edges[-1] < k0_max:
            edges.append(10.0 * edges[-1])
        edges = np.array(edges + [k0_max])
        lo, width = edges[:-1, None], np.diff(edges)[:, None]
        rules = []
        for nodes, weights in (_legendre(_PANEL_NODES), _legendre(2 * _PANEL_NODES)):
            values = integrand(lo + width * nodes, mag)
            rules.append(float(np.sum(width * values * weights)))
        coarse, total = rules
        err = abs(total - coarse) + abs(integrand(np.float64(k0_max), mag)) * tail_factor
        if not math.isfinite(total + err) or err > max(1e-6 * abs(total), 1e-280):
            raise NumericError(
                f"frequency-line integral error {err:g} too large for {total:g}"
            )
        out[np.abs(k_values) == mag] = 2.0 * total
    return out


def _separation_indices(grid, window):
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


def deterministic_scaling_slope(sampler, window):
    """Slope of the exact equal-time pairing sum for pi_f0, no sampling."""
    js = _separation_indices(sampler.grid, window)
    p_density = equal_time_density(sampler)
    length = sampler.grid.boxes[-1]
    n = sampler.grid.sizes[-1]
    g_line = np.fft.irfft(p_density, n) * (n / length)
    moments = np.array([2.0 * (g_line[0] - g_line[j]) for j in js])
    seps = np.array(js) * (length / n)
    return fit_log_slope(seps, moments)


def scaling_fit(component, sampler, window, n_samples=1024, bootstrap=200):
    """(exponent, ci): log-log slope of E|Pi(y)|^2 against |y - x|_s.

    'f0' samples the equal-time spatial marginal directly (the space-time
    torus cannot resolve the parabolic frequency ridge, see
    equal_time_density); 'f0f1' runs on the sampler's own space-time grid
    and is therefore comparable only with same-grid oracles.  The ci is
    the half-width of a 95% bootstrap interval over samples.  ``window``
    (lo, hi) bounds the separations and must span half a decade.
    """
    js = _separation_indices(sampler.grid, window)
    grid = sampler.grid
    length = grid.boxes[-1]
    n = grid.sizes[-1]
    seps = np.array(js) * (length / n)
    rows = np.empty((n_samples, len(js)))
    if component == "f0":
        p_density = equal_time_density(sampler)
        scale = np.sqrt(p_density * n / length)
        for i in range(n_samples):
            key = _sample_key(sampler.seed, (i << 8) | 0x5C)
            rng = np.random.Generator(np.random.Philox(key=key))
            w = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * scale, n)
            rows[i] = [np.mean((np.roll(w, -j) - w) ** 2) for j in js]
    elif component == "f0f1":
        x = (0,) * (grid.d + 1)
        for i in range(n_samples):
            noise = sample_noise(sampler, i)
            u = pi_f0f1(noise, x, m0=sampler.spec.m0).values
            rows[i] = [u[x[:-1] + ((x[-1] + j) % n,)] ** 2 for j in js]
    else:
        raise ConfigError(f"component must be f0 or f0f1, got {component!r}")
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
    return exponent, float((hi - lo) / 2.0)
