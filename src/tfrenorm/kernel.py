"""Periodic spectral kernel of the fourth-order parabolic operator.

The linear operator L = d_0 + m0 Delta^2 and its modulus LL* =
-d_0^2 + m0^2 Delta^4 act diagonally in Fourier space.  This module keeps
the desk-scale stand-in for the whole-space theory: a torus whose time
period is measured in units of length^4 so that the parabolic scaling
(t, x) -> (s^4 t, s x) maps grid points to grid points, the heat-type
kernel psi_t = exp(-t LL*) sampled on that torus, discrete convolution,
and the inversion u = L^{-1} (div f) used by the simulation layer.  The
multipliers of L^{-1} div are stated once, in div_symbols: solve_L_div
applies them and the pairing-sum oracles of the MC layer read them.

Conventions: a frequency is an integer wavenumber divided by the box
period, Fourier transforms follow the Riemann-sum normalisation

    fhat(k) = (vol / N) * sum_x f(x) e^{-2 pi i k x},
    f(x)    = (N / vol) * sum_k fhat(k) e^{+2 pi i k x},

so that multiplier formulas look exactly like their continuum versions.

Every field is real, and Fourier data is its half spectrum (rfftn over
the axes (1, ..., d, 0)): time is the halved axis, with frequencies
0..N0/2 and shape (N0//2 + 1, N1, ..., Nd).  The symbol of L is odd in k0,
so on the time-Nyquist plane the inverse transform keeps exactly the
conjugate-symmetric part that a real part of a full transform would.
Nyquist rule: an odd power of 2 pi i k is zero on its axis's Nyquist row,
where +N/2 and -N/2 are one mode (SpectralGrid.ik_power).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic space-time lattice: axis 0 is time, axes 1..d are space.

    sizes -- points per axis, all even
    boxes -- periods per axis; the time period is in units of length^4
    """

    d: int
    sizes: tuple
    boxes: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.d}")
        if len(self.sizes) != self.d + 1 or len(self.boxes) != self.d + 1:
            raise ConfigError(
                f"need {self.d + 1} sizes and boxes for d={self.d}, got "
                f"{len(self.sizes)} and {len(self.boxes)}"
            )
        if any(n <= 0 or n % 2 for n in self.sizes):
            raise ConfigError(f"grid sizes must be positive and even: {self.sizes}")
        if any(b <= 0 for b in self.boxes):
            raise ConfigError(f"box periods must be positive: {self.boxes}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "boxes", tuple(float(b) for b in self.boxes))

    @property
    def point_count(self):
        return int(np.prod(self.sizes))

    @property
    def volume(self):
        return float(np.prod(self.boxes))

    @property
    def cell(self):
        """Volume of one lattice cell."""
        return self.volume / self.point_count

    def frequencies(self, axis):
        """Wavenumbers k = j / box, j in {-N/2, ..., N/2 - 1}."""
        n = self.sizes[axis]
        return np.fft.fftfreq(n, d=self.boxes[axis] / n)

    @property
    def spectrum_shape(self):
        """Shape of the half spectrum: the time axis is the halved one."""
        return (self.sizes[0] // 2 + 1,) + self.sizes[1:]

    def frequency_mesh(self):
        """Per-axis frequencies of the half spectrum, broadcastable to its shape.

        Time runs over 0, ..., N0/2 (rfftfreq), space over fftfreq.
        """
        n0 = self.sizes[0]
        axes = [np.fft.rfftfreq(n0, d=self.boxes[0] / n0)]
        axes += [self.frequencies(i) for i in range(1, self.d + 1)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def ik_power(self, axis, order):
        """(2 pi i k)^order along one axis, broadcastable to the half spectrum.

        An odd power is zero on the axis's Nyquist row (index N/2).
        """
        k = self.frequency_mesh()[axis]
        if order % 2:
            k.flat[self.sizes[axis] // 2] = 0.0
        return (TWO_PI * 1j * k) ** int(order)

    def _transform_args(self):
        """rfftn/irfftn arguments: space axes first, time last (halved)."""
        return {"s": self.sizes[1:] + self.sizes[:1],
                "axes": tuple(range(1, self.d + 1)) + (0,)}

    def coordinates(self, axis, centered=False):
        """Lattice coordinates along one axis, optionally wrapped to 0."""
        n, box = self.sizes[axis], self.boxes[axis]
        xs = np.arange(n) * (box / n)
        if centered:
            xs = (xs + box / 2.0) % box - box / 2.0
        return xs


def make_grid(d, sizes, boxes):
    """SpectralGrid from any sequences of sizes and boxes."""
    return SpectralGrid(d=d, sizes=tuple(sizes), boxes=tuple(boxes))


@dataclass(frozen=True)
class SpectralField:
    """A real field on the grid, tagged with the representation it lives in.

    Physical values are real float64 of the grid shape; Fourier values are
    the complex half spectrum of shape grid.spectrum_shape.  Complex
    physical input is a ConfigError.
    """

    grid: SpectralGrid
    values: np.ndarray
    space: str  # "physical" | "fourier"

    def __post_init__(self):
        if self.space == "physical":
            if np.iscomplexobj(self.values):
                raise ConfigError("physical field values must be real")
            vals, shape = np.asarray(self.values, dtype=np.float64), self.grid.sizes
        elif self.space == "fourier":
            vals = np.asarray(self.values, dtype=np.complex128)
            shape = self.grid.spectrum_shape
        else:
            raise ConfigError(f"space must be physical or fourier: {self.space!r}")
        if vals.shape != shape:
            raise ConfigError(
                f"{self.space} field shape {vals.shape} does not match {shape}"
            )
        object.__setattr__(self, "values", vals)

    def to_fourier(self):
        if self.space == "fourier":
            return self
        vals = np.fft.rfftn(self.values, **self.grid._transform_args())
        return SpectralField(self.grid, vals * self.grid.cell, "fourier")

    def to_physical(self):
        if self.space == "physical":
            return self
        vals = np.fft.irfftn(self.values, **self.grid._transform_args())
        return SpectralField(self.grid, vals / self.grid.cell, "physical")


def real_defect(field):
    """Relative part of the Fourier data that no real field carries.

    This is what a round trip through physical space drops: the part of
    the self-conjugate planes that is not conjugate symmetric.  Zero (to
    rounding) for the transform of any physical field.
    """
    hat = field.to_fourier()
    scale = np.max(np.abs(hat.values))
    if scale == 0.0:
        return 0.0
    back = hat.to_physical().to_fourier().values
    return float(np.max(np.abs(hat.values - back)) / scale)


# ---------------------------------------------------------------------------
# symbols and the kernel
# ---------------------------------------------------------------------------


def symbol_LLstar(k, m0):
    """Symbol of -d_0^2 + m0^2 Delta^4 at frequency k = (k0, k1, ..., kd),
    whose entries are numbers or numpy arrays that broadcast together."""
    if m0 <= 0:
        raise ConfigError(f"m0 must be positive, got {m0}")
    lap = sum([(TWO_PI * ki) ** 2 for ki in k[1:]])
    return (TWO_PI * k[0]) ** 2 + m0**2 * lap**4


def symbol_L(k, m0):
    """Symbol of d_0 + m0 Delta^2; |symbol_L|^2 = symbol_LLstar."""
    if m0 <= 0:
        raise ConfigError(f"m0 must be positive, got {m0}")
    lap = sum([(TWO_PI * ki) ** 2 for ki in k[1:]])
    return TWO_PI * 1j * k[0] + m0 * lap**2


def psi_hat(t, k, m0):
    """Fourier transform exp(-t LL*) of the kernel, real and positive."""
    if t < 0:
        raise ConfigError(f"kernel time must be >= 0, got {t}")
    return np.exp(-t * symbol_LLstar(k, m0))


def kernel_field(grid, t, m0=1.0):
    """The kernel psi_t sampled on the torus, as a physical-space field."""
    hat = psi_hat(t, grid.frequency_mesh(), m0)
    return SpectralField(grid, hat, "fourier").to_physical()


def convolve(field, t, m0=1.0):
    """Space-time convolution with psi_t, returned in the input space."""
    hat = field.to_fourier()
    vals = hat.values * psi_hat(t, field.grid.frequency_mesh(), m0)
    out = SpectralField(field.grid, vals, "fourier")
    return out if field.space == "fourier" else out.to_physical()


def derivative(field, orders):
    """Mixed partial derivative via the Fourier multiplier prod (2 pi i k)^n."""
    if len(orders) != field.grid.d + 1:
        raise ConfigError(
            f"need {field.grid.d + 1} derivative orders, got {len(orders)}"
        )
    vals = field.to_fourier().values
    for axis, order in enumerate(orders):
        if order:
            vals = vals * field.grid.ik_power(axis, order)
    out = SpectralField(field.grid, vals, "fourier")
    return out if field.space == "fourier" else out.to_physical()


def div_symbols(grid, m0):
    """The multipliers 2 pi i k_i / symbol_L(k, m0) of L^{-1} div, one per
    spatial axis i; zero at k = 0 and on the axis's Nyquist row."""
    sym = symbol_L(grid.frequency_mesh(), m0)
    sym[(0,) * (grid.d + 1)] = 1.0  # where every 2 pi i k_i is zero
    return [grid.ik_power(1 + i, 1) / sym for i in range(grid.d)]


def solve_L_div(components, m0=1.0):
    """Solve L u = div f for the d spatial components f, zero-mean gauge:
    uhat = sum_i div_symbols_i fhat_i.
    """
    components = list(components)
    if not components:
        raise ConfigError("solve_L_div needs at least one component")
    grid = components[0].grid
    if len(components) != grid.d:
        raise ConfigError(
            f"need {grid.d} spatial components, got {len(components)}"
        )
    if any(c.grid != grid for c in components):
        raise ConfigError("all components must share one grid")
    u_hat = sum(
        mult * comp.to_fourier().values
        for mult, comp in zip(div_symbols(grid, m0), components)
    )
    out = SpectralField(grid, u_hat, "fourier")
    return out if components[0].space == "fourier" else out.to_physical()


def aniso_norm(x):
    """Parabolic distance |x0|^(1/4) + sum_i |x_i| from the origin."""
    parts = [np.asarray(part, dtype=float) for part in x]
    total = np.abs(parts[0]) ** 0.25
    for part in parts[1:]:
        total = total + np.abs(part)
    return total if total.ndim else float(total)


# ---------------------------------------------------------------------------
# discrete checks: semigroup, scaling, moment bounds, inversion
# ---------------------------------------------------------------------------


def checks_grid():
    """Grid tuned for the kernel checks: resolves psi_t for t ~ 1e-12..1e-10.

    The time box is much shorter than length^4 because the checked kernels
    are extremely thin in time.  The spatial box is 4 rather than 1: the
    fourth-order kernel has only stretched-exponential spatial tails, and
    the weighted moment integrals see them at the box edge unless the edge
    sits ~30 kernel widths out.  The lattice spacing stays at 1/1024.
    """
    return SpectralGrid(d=1, sizes=(512, 4096), boxes=(1e-4, 4.0))


def semigroup_defect(grid, s, t, m0=1.0):
    """Relative gap between psi_s * psi_t and psi_{s+t} on the torus."""
    two_step = convolve(kernel_field(grid, s, m0), t, m0)
    one_step = kernel_field(grid, s + t, m0)
    scale = np.max(np.abs(one_step.values))
    return float(np.max(np.abs(two_step.values - one_step.values)) / scale)


def evenness_defect(field):
    """Deviation from reflection symmetry in every spatial coordinate."""
    vals = field.to_physical().values
    worst = 0.0
    for axis in range(1, field.grid.d + 1):
        flipped = np.flip(np.roll(vals, -1, axis=axis), axis=axis)
        worst = max(worst, float(np.max(np.abs(vals - flipped))))
    return worst / float(np.max(np.abs(vals)))


def scaling_defect(grid, t, m0=1.0):
    """Relative L2 gap in psi_{sigma^8 t}(sigma^4 x0, sigma x1) = sigma^-D psi_t(x)
    at sigma = 2.

    An integer sigma keeps the rescaled points on the lattice.  The
    comparison runs over the window where the rescaled coordinates stay
    within a quarter period of the torus: outside it the left-hand side
    picks up the periodic images of the kernel (equivalently, subsampling
    the coarse kernel in Fourier space periodises it with the shrunken
    box), which the identity on the plane knows nothing about.
    """
    if grid.d != 1:
        raise ConfigError("the scaling check is wired for d = 1")
    sigma = 2
    n0, n1 = grid.sizes
    w0 = n0 // (4 * sigma**4)
    w1 = n1 // (4 * sigma)
    if w0 < 2 or w1 < 2:
        raise ConfigError("grid too coarse for the scaling window")
    coarse = kernel_field(grid, (sigma**8) * t, m0).values
    fine = kernel_field(grid, t, m0).values
    j0 = np.arange(-w0, w0 + 1)
    j1 = np.arange(-w1, w1 + 1)
    fine_win = fine[np.ix_(j0 % n0, j1 % n1)]
    coarse_win = coarse[np.ix_((sigma**4 * j0) % n0, (sigma * j1) % n1)]
    mapped = float(sigma) ** (4 + grid.d) * coarse_win
    return float(np.linalg.norm(mapped - fine_win) / np.linalg.norm(fine_win))


def moment_bound_spreads(grid, times, m0=1.0):
    """max/min - 1 of the moment ratios over the time window, per (n, theta).

    The ratio is the grid value of
    t^{(|n|-theta)/8} integral |d^n psi_t(z)| (t^{1/8}+|z|_s)^theta dz,
    which the kernel bound keeps below a constant uniformly in t, for the
    spatial derivatives n = (0, 0), ..., (0, 3) (|n| = 4 n0 + n1 <= 3) and
    theta in {-1, 0, 1}.  Per t there is one kernel symbol and one weight
    w = t^{1/8} + |z|_s, and per (t, n) one transform shared across the
    theta values, which is what makes the full sweep cheap enough to run
    routinely.  Each weighted integrand is formed and summed on its own,
    so no two of them are held at once.
    """
    if grid.d != 1:
        raise ConfigError("the moment derivative orders are wired for d = 1")
    coords = [grid.coordinates(axis, centered=True) for axis in range(grid.d + 1)]
    mesh = np.meshgrid(*coords, indexing="ij", sparse=True)
    freq = grid.frequency_mesh()
    acc = {}
    for t in np.asarray(times, dtype=float):
        hat = SpectralField(grid, psi_hat(t, freq, m0), "fourier")
        w = t**0.125 + aniso_norm(mesh)
        for n1 in range(4):
            magnitude = np.abs(derivative(hat, (0, n1)).to_physical().values)
            sums = (np.sum(magnitude / w), np.sum(magnitude), np.sum(magnitude * w))
            for theta, weighted_sum in zip((-1, 0, 1), sums):
                ratio = t ** ((n1 - theta) / 8.0) * float(weighted_sum * grid.cell)
                acc.setdefault(((0, n1), theta), []).append(ratio)
    return {key: max(vals) / min(vals) - 1.0 for key, vals in acc.items()}


def inversion_residual(grid, m0=1.0, seed=0):
    """(residual, realness) of solve_L_div on random real input, band
    limited to the wavenumbers |j| < N_i/4 on each axis.

    residual -- relative gap ||symbol_L u_hat - div_hat|| / ||div_hat|| in
                Fourier space (div_hat has no zero mode), where u_hat comes from
                solve_L_div and div_hat is rebuilt by the same ik_power
                rule; it shows that solve_L_div divides by symbol_L on
                every nonzero mode, so it sits at rounding level, but it
                checks neither the transforms nor the divergence itself
    realness -- real_defect of u: the part of its spectrum no real field has
    """
    rng = np.random.default_rng(seed)
    mesh = grid.frequency_mesh()
    comps = []
    for _ in range(grid.d):
        field = SpectralField(grid, rng.standard_normal(grid.sizes), "physical")
        hat = field.to_fourier().values
        for k, box, n in zip(mesh, grid.boxes, grid.sizes):
            hat = np.where(np.abs(np.rint(k * box)) < n / 4, hat, 0.0)
        comps.append(SpectralField(grid, hat, "fourier"))
    u_hat = solve_L_div(comps, m0)
    div_hat = sum(grid.ik_power(1 + i, 1) * c.values for i, c in enumerate(comps))
    gap = symbol_L(mesh, m0) * u_hat.values - div_hat
    return float(np.linalg.norm(gap) / np.linalg.norm(div_hat)), real_defect(u_hat)


def kernel_checks(grid, m0=1.0, scaling_time=3e-13):
    """Run every discrete kernel check; returns the measured defects.

    Keys: semigroup, evenness, realness, scaling, inversion_residual,
    inversion_realness, moment_spread (dict over (orders, theta) of
    max/min - 1 across the time window of five times from 1e-12 to 1e-10).
    """
    times = np.geomspace(1e-12, 1e-10, 5)
    base = float(times[0])
    base_hat = SpectralField(grid, psi_hat(base, grid.frequency_mesh(), m0), "fourier")
    out = {
        "semigroup": semigroup_defect(grid, 3.0 * base, 7.0 * base, m0),
        "evenness": evenness_defect(base_hat),
        "realness": real_defect(base_hat),
        "scaling": scaling_defect(grid, scaling_time, m0),
    }
    out["inversion_residual"], out["inversion_realness"] = inversion_residual(grid, m0)
    out["moment_spread"] = moment_bound_spreads(grid, times, m0)
    return out


# ---------------------------------------------------------------------------
# dump format: flat little-endian float64 plus a JSON sidecar
# ---------------------------------------------------------------------------


def dump_field(field, path):
    """Write the physical values as flat '<f8' binary with a {sizes, boxes,
    space} sidecar; a Fourier field is transformed first."""
    path = Path(path)
    field = field.to_physical()
    sidecar = {
        "sizes": list(field.grid.sizes),
        "boxes": list(field.grid.boxes),
        "space": field.space,
    }
    try:
        np.ascontiguousarray(field.values, dtype="<f8").tofile(path)
        Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=1) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write the field dump {str(path)!r}: {exc}") from None


def load_field(path):
    """Rebuild a field dumped by dump_field from the file and its sidecar."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise ConfigError(f"missing sidecar {sidecar_path}")
    meta = json.loads(sidecar_path.read_text())
    sizes = tuple(int(n) for n in meta["sizes"])
    boxes = tuple(float(b) for b in meta["boxes"])
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=boxes)
    raw = np.fromfile(path, dtype="<f8")
    if meta["space"] != "physical" or raw.size != grid.point_count:
        raise ConfigError(
            f"dump holds {raw.size} {meta['space']} reals, expected "
            f"{grid.point_count} physical"
        )
    return SpectralField(grid, raw.reshape(sizes), "physical")
