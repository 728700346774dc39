"""Periodic spectral kernel of the fourth-order parabolic operator.

The linear operator L = d_0 + m0 Delta^2 and its modulus LL* =
-d_0^2 + m0^2 Delta^4 act diagonally in Fourier space.  This module keeps
the desk-scale stand-in for the whole-space theory: a torus whose time
period is measured in units of length^4 so that the parabolic scaling
(t, x) -> (s^4 t, s x) maps grid points to grid points, the heat-type
kernel psi_t = exp(-t LL*) sampled on that torus, discrete convolution,
and the inversion u = L^{-1} (div f) used by the simulation layer.

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

#: grid sizes (N0, N1) used when none are given, d = 1
DEFAULT_SIZES = (256, 1024)


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


def make_grid(d=1, sizes=None, boxes=None, length=1.0):
    """Grid with the default anisotropy: time period = (space period)^4."""
    if sizes is None:
        sizes = DEFAULT_SIZES if d == 1 else (DEFAULT_SIZES[0],) + (64,) * d
    if boxes is None:
        boxes = (float(length) ** 4,) + (float(length),) * d
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


def _as_axes(k):
    return [np.asarray(part, dtype=float) for part in k]


def symbol_LLstar(k, m0):
    """Symbol of -d_0^2 + m0^2 Delta^4 at frequency k = (k0, k1, ..., kd)."""
    if m0 <= 0:
        raise ConfigError(f"m0 must be positive, got {m0}")
    parts = _as_axes(k)
    lap = sum((TWO_PI * ki) ** 2 for ki in parts[1:])
    return (TWO_PI * parts[0]) ** 2 + m0**2 * lap**4


def symbol_L(k, m0):
    """Symbol of d_0 + m0 Delta^2; |symbol_L|^2 = symbol_LLstar."""
    if m0 <= 0:
        raise ConfigError(f"m0 must be positive, got {m0}")
    parts = _as_axes(k)
    lap = sum((TWO_PI * ki) ** 2 for ki in parts[1:])
    return TWO_PI * 1j * parts[0] + m0 * lap**2


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


def solve_L_div(components, m0=1.0):
    """Solve L u = div f for the d spatial components f, zero-mean gauge.

    uhat(k) = 2 pi i (k_space . fhat(k)) / symbol_L(k, m0), uhat(0) = 0.
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
    div_hat = sum(
        grid.ik_power(1 + i, 1) * comp.to_fourier().values
        for i, comp in enumerate(components)
    )
    sym = symbol_L(grid.frequency_mesh(), m0)
    sym_safe = np.where(sym == 0, 1.0, sym)
    u_hat = div_hat / sym_safe
    u_hat[(0,) * (grid.d + 1)] = 0.0
    out = SpectralField(grid, u_hat, "fourier")
    return out if components[0].space == "fourier" else out.to_physical()


def aniso_norm(x, params=None):
    """Parabolic distance |x0|^(1/4) + sum_i |x_i| from the origin."""
    parts = [np.asarray(part, dtype=float) for part in x]
    if params is not None and len(parts) != params.d + 1:
        raise ConfigError(
            f"point has {len(parts)} coordinates, model has d={params.d}"
        )
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


def scaling_defect(grid, t, m0=1.0, sigma=2):
    """Relative L2 gap in psi_{sigma^8 t}(sigma^4 x0, sigma x1) = sigma^-D psi_t(x).

    sigma must be an integer so the rescaled points are again lattice
    points.  The comparison runs over the window where the rescaled
    coordinates stay within a quarter period of the torus: outside it the
    left-hand side picks up the periodic images of the kernel (equivalently,
    subsampling the coarse kernel in Fourier space periodises it with the
    shrunken box), which the identity on the plane knows nothing about.
    """
    sigma = int(sigma)
    if sigma < 2:
        raise ConfigError(f"scaling factor must be an integer >= 2, got {sigma}")
    if grid.d != 1:
        raise ConfigError("the scaling check is wired for d = 1")
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


def moment_bound_spreads(grid, times, m0=1.0, orders_list=None, thetas=(-1, 0, 1)):
    """max/min - 1 of the moment ratios over the time window, per (n, theta).

    The ratio is the grid value of
    t^{(|n|-theta)/8} integral |d^n psi_t(z)| (t^{1/8}+|z|_s)^theta dz,
    which the kernel bound keeps below a constant uniformly in t.  One
    transform per (t, n) pair is shared across the theta values, which is
    what makes the full sweep cheap enough to run routinely.
    """
    if orders_list is None:
        if grid.d != 1:
            raise ConfigError("default derivative orders are wired for d = 1")
        orders_list = [(0, n1) for n1 in range(4)]  # |n| = 4 n0 + n1 <= 3
    coords = [grid.coordinates(axis, centered=True) for axis in range(grid.d + 1)]
    mesh = np.meshgrid(*coords, indexing="ij", sparse=True)
    base_norm = aniso_norm(mesh)
    freq = grid.frequency_mesh()
    acc = {}
    for t in np.asarray(times, dtype=float):
        hat = psi_hat(t, freq, m0)
        for orders in orders_list:
            dpsi = derivative(SpectralField(grid, hat, "fourier"), orders)
            magnitude = np.abs(dpsi.to_physical().values)
            aniso_order = 4 * orders[0] + sum(orders[1:])
            for theta in thetas:
                weight = (t**0.125 + base_norm) ** theta
                integral = float(np.sum(magnitude * weight) * grid.cell)
                ratio = t ** ((aniso_order - theta) / 8.0) * integral
                acc.setdefault((tuple(orders), theta), []).append(ratio)
    return {key: max(vals) / min(vals) - 1.0 for key, vals in acc.items()}


def inversion_residual(grid, m0=1.0, seed=0, band_limit=None):
    """(residual, realness) of solve_L_div on random real input.

    residual -- relative discrete gap ||L u - div f|| / ||div f||, with L
                applied by a fresh transform round-trip
    realness -- real_defect of u: the part of its spectrum no real field has
    band_limit keeps wavenumbers |j| < N_i/band_limit per axis (None: all).
    """
    rng = np.random.default_rng(seed)
    mesh = grid.frequency_mesh()
    comps = []
    for _ in range(grid.d):
        field = SpectralField(grid, rng.standard_normal(grid.sizes), "physical")
        if band_limit is not None:
            hat = field.to_fourier().values
            for k, box, n in zip(mesh, grid.boxes, grid.sizes):
                hat = np.where(np.abs(np.rint(k * box)) < n / band_limit, hat, 0.0)
            field = SpectralField(grid, hat, "fourier").to_physical()
        comps.append(field)
    u_hat = solve_L_div([c.to_fourier() for c in comps], m0)
    realness = real_defect(u_hat)
    div_hat = sum(
        grid.ik_power(1 + i, 1) * c.to_fourier().values
        for i, c in enumerate(comps)
    )
    lu_hat = symbol_L(mesh, m0) * u_hat.values
    div_hat_zeroed = div_hat.copy()
    div_hat_zeroed[(0,) * (grid.d + 1)] = 0.0
    residual = float(
        np.linalg.norm(lu_hat - div_hat_zeroed) / np.linalg.norm(div_hat_zeroed)
    )
    return residual, realness


def kernel_checks(grid=None, m0=1.0, times=None, scaling_time=3e-13):
    """Run every discrete kernel check; returns the measured defects.

    Keys: semigroup, evenness, realness, scaling, inversion_residual,
    inversion_realness, moment_spread (dict over (orders, theta) of
    max/min - 1 across the time window).
    """
    grid = grid or checks_grid()
    times = np.asarray(
        np.geomspace(1e-12, 1e-10, 5) if times is None else times, dtype=float
    )
    base = float(times[0])
    out = {
        "semigroup": semigroup_defect(grid, 3.0 * base, 7.0 * base, m0),
        "evenness": evenness_defect(kernel_field(grid, base, m0)),
        "realness": real_defect(
            SpectralField(
                grid,
                psi_hat(base, grid.frequency_mesh(), m0),
                "fourier",
            )
        ),
        "scaling": scaling_defect(grid, scaling_time, m0),
    }
    residual, realness = inversion_residual(grid, m0, band_limit=4)
    out["inversion_residual"] = residual
    out["inversion_realness"] = realness
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
    np.ascontiguousarray(field.values, dtype="<f8").tofile(path)
    sidecar = {
        "sizes": list(field.grid.sizes),
        "boxes": list(field.grid.boxes),
        "space": field.space,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=1) + "\n")


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
