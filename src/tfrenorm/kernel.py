"""Periodic spectral kernel of the fourth-order parabolic operator.

The linear operator L = d_0 + m0 Delta^2 and its modulus LL* =
-d_0^2 + m0^2 Delta^4 act diagonally in Fourier space.  This module keeps
the desk-scale stand-in for the whole-space theory: a torus whose time
period is measured in units of length^4 so that the parabolic scaling
(t, x) -> (s^4 t, s x) maps grid points to grid points, the heat-type
kernel psi_t = exp(-t LL*) sampled on that torus, discrete convolution,
and the inversion u = L^{-1} (div f) used by the simulation layer.  The
multipliers of L^{-1} div are stated once, in div_symbols: solve_L_div
and the MC checks apply them, and the pairing-sum oracles read them.
point_reader, the one reader, reads a field at a few cells straight from
its half spectrum, or from its block on the spatial columns outside which
it is zero.
The symbols of L and LL* (symbol_L, symbol_LLstar) and check_m0 are
numpy-free and live in the constants layer; this module imports them.

The symbol of LL* is a time part plus a space part, (2 pi k0)^2 +
m0^2 |2 pi k|^8, so psi_hat_t is their product exp(-t (2 pi k0)^2) *
exp(-t m0^2 |2 pi k|^8) and on the torus psi_t(x0, x) = a_t(x0) b_t(x), with
spatial derivatives acting on b_t alone; this holds in any d.  psi_hat
forms the two factors on their own axes; _kernel_factors transforms them,
one transform over time and one over space per derivative order.  Only
kernel_field and semigroup_defect form psi_t on the grid, as a_t b_t, and
the moment and scaling checks read the factors alone.
kernel_checks runs three full-grid transforms as one chain on psi_hat_s, in
one buffer: the evenness, realness and semigroup checks read it, and are
the checks of the transforms; semigroup sets them against kernel_field's
factors.  The inversion check of solve_L_div runs on the half lattice, N_i/2
points per axis over the same boxes: its input band |j| < N_i/4 is every
mode there but the Nyquist rows, so the full grid would only carry zeros.

Memory rule: a full-grid transform or check holds only the grid arrays its
arithmetic needs, and no public function but semigroup_defect (into the
forward transform handed to it) writes into an array its caller passed.
Every grid array the transforms make is time-contiguous (Fortran order):
each time-axis line is contiguous, and so is each block of the last spatial
axis (_blocks: 128 KiB of half spectrum, at most an eighth of the axis).
The transforms are staged.
Forward (_forward): rfft along time block by block, then fft in place over
each space axis (the last first, as rfftn orders them), then the cell
scaling in place.  Inverse (_inverse): ifft over the space axes (1, ..., d)
into a working copy, then irfft along time block by block, then the scaling
in place.  Both are bit for bit rfftn and irfftn over the axes (1, ..., d,
0): per line, numpy's FFT of a block is that of the whole array.
A half-spectrum column (one time line) takes 8 N0 + 16 bytes and a physical
one 8 N0.  So the inverse writes the physical values packed at the front of
its working copy's buffer, blocks first to last, and the forward transform
of values packed so can go back into that buffer, blocks last to first: in
either order no column is written before it is read, and numpy copies out a
block that its output overlaps (the ufunc overlap rule).  A function that
owns a time-contiguous half spectrum it made (convolve, derivative and
solve_L_div on physical input, and mc._NoiseSource.inverse, which scatters
into time-contiguous zeros) hands it to the inverse as its working copy, to
be overwritten; other input, such as a caller's C-ordered half spectrum,
gets a fresh working copy from the first space pass.  The checks reduce
block by block, one function call per block, so that one block's
temporaries are live at a time and none has the grid's size.  The in-place
passes use the out= of numpy.fft, new in numpy 2.0.

Conventions: a frequency is an integer wavenumber divided by the box
period, Fourier transforms follow the Riemann-sum normalisation

    fhat(k) = (vol / N) * sum_x f(x) e^{-2 pi i k x},
    f(x)    = (1 / vol) * sum_k fhat(k) e^{+2 pi i k x},

so that multiplier formulas look exactly like their continuum versions.

Every field is real, and Fourier data is its half spectrum (rfftn over
the axes (1, ..., d, 0)): time is the halved axis, with frequencies
0..N0/2 and shape (N0//2 + 1, N1, ..., Nd).  Plane rule: the inverse real
transform weighs time row k0 by c(k0) (SpectralGrid.c2r_weights), and on
the self-conjugate planes k0 = 0, N0/2 keeps only the part with x(-k) =
conj x(k), the part a real part of a full transform keeps.
Nyquist rule: an odd power of 2 pi i k is zero on its axis's Nyquist row,
where +N/2 and -N/2 are one mode (SpectralGrid.ik_power).
Mesh rule: symbol_LLstar is finite at every frequency of a grid
(check_mesh); the NoiseSampler constructor and kernel_checks refuse a grid
that breaks it before any other work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import TWO_PI, check_m0, symbol_L, symbol_LLstar
from .errors import ConfigError, NumericError


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
        return math.prod(self.sizes)

    @property
    def volume(self):
        return math.prod(self.boxes)

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

    def c2r_weights(self):
        """c(k0) per time row, shape (N0//2 + 1, 1): the inverse real transform
        counts the planes k0 = 0 and k0 = N0/2 once, every other row twice."""
        c = np.full((self.spectrum_shape[0], 1), 2.0)
        c[[0, -1]] = 1.0
        return c

    def ik_power(self, axis, order):
        """(2 pi i k)^order along one axis, broadcastable to the half spectrum.

        An odd power is zero on the axis's Nyquist row (index N/2).
        """
        k = self.frequency_mesh()[axis]
        if order % 2:
            k.flat[self.sizes[axis] // 2] = 0.0
        return (TWO_PI * 1j * k) ** int(order)

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


def check_mesh(grid, m0=1.0):
    """The mesh rule: |symbol_L|^2 = symbol_LLstar = (2 pi k0)^2 +
    m0^2 |2 pi k|^8 is finite at every frequency of the grid, so every power
    of a frequency that the mesh layers form is finite too.  It is largest
    at the Nyquist corner k_i = (N_i / 2) / box_i.  Boxes so small that it
    overflows there are a NumericError."""
    with np.errstate(over="ignore", invalid="ignore"):
        corner = [np.float64(n // 2) / box for n, box in zip(grid.sizes, grid.boxes)]
        peak = symbol_LLstar(corner, m0)
    if not np.isfinite(peak):
        raise NumericError(f"the frequency mesh overflows when squared into symbol_LLstar "
                           f"(boxes={grid.boxes}, m0={m0})")


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
        return SpectralField(self.grid, _forward(self.grid, self.values), "fourier")

    def to_physical(self):
        if self.space == "physical":
            return self
        return SpectralField(self.grid, _inverse(self.grid, self.values), "physical")


# bytes of half spectrum per block of the time passes and the full-grid
# reductions: a reduction holds about two blocks of temporaries, and an
# in-place time pass a copy of the block its output overlaps
_BLOCK_BYTES = 1 << 17


def _blocks(grid):
    """Index tuples of the blocks the time passes and the full-grid reductions
    run over, first to last: slices of the last spatial axis, each about
    _BLOCK_BYTES of half spectrum but at most an eighth of the axis, so that
    a block's temporaries stay small on a small grid too; the last one may be
    partial.  In a time-contiguous array a block is one contiguous run of
    memory."""
    n = grid.sizes[-1]
    width = max(1, min(_BLOCK_BYTES // (16 * math.prod(grid.spectrum_shape[:-1])), n // 8))
    return [(Ellipsis, slice(j, min(j + width, n))) for j in range(0, n, width)]


def _forward(grid, vals, out=None):
    """Half spectrum of the physical values vals (the staged rfftn, scaled),
    time-contiguous: written to out, or to a fresh array.

    vals may be packed at the front of out's buffer, as _inverse leaves it:
    the time pass runs over the blocks from last to first, so no column is
    written before it is read.
    """
    if out is None:
        out = np.empty(grid.spectrum_shape, complex, order="F")
    for block in reversed(_blocks(grid)):
        np.fft.rfft(vals[block], n=grid.sizes[0], axis=0, out=out[block])
    for axis in range(grid.d, 0, -1):
        np.fft.fft(out, axis=axis, out=out)
    out *= grid.cell
    return out


def _inverse(grid, hat, owned=False):
    """Physical values of the half spectrum hat (the staged irfftn, scaled),
    time-contiguous and packed at the front of the working copy's buffer.

    With owned set and hat time-contiguous, hat is the working copy and is
    overwritten; otherwise the first space pass writes a fresh
    time-contiguous one.  The time pass runs over the blocks from first to
    last, so no column is written before it is read.
    """
    work = hat
    if not (owned and hat.flags.f_contiguous):
        work = np.empty(grid.spectrum_shape, complex, order="F")
    for axis in range(1, grid.d + 1):
        hat = np.fft.ifft(hat, axis=axis, out=work)
    out = np.ndarray(grid.sizes, np.float64, buffer=work, order="F")
    for block in _blocks(grid):
        np.fft.irfft(work[block], n=grid.sizes[0], axis=0, out=out[block])
    out /= grid.cell
    return out


def column_wavenumbers(sizes, cols):
    """Per axis of sizes, the signed integer wavenumbers (fftfreq order) of
    the flat columns cols of an array of that shape."""
    return [np.fft.fftfreq(n, 1.0 / n).astype(np.int64)[index]
            for n, index in zip(sizes, np.unravel_index(cols, sizes))]


def _turns(sizes, wavenumbers, cells):
    """Per axis, j x mod n for every cell (first axis): the phases in exact
    integer 1/n turns."""
    cells = np.reshape(np.asarray(cells, dtype=np.int64), (-1, len(sizes)))
    return [(j * (x[:, None, None] % n)) % n for j, x, n in zip(wavenumbers, cells.T, sizes)]


def lattice_phase(sizes, wavenumbers, cells, row=1.0):
    """row times prod_i e^{2 pi i j_i x_i / n_i} for every cell x (first
    axis) and the integer wavenumbers j_i of each axis (arrays that
    broadcast against each other).  Along each axis the phase is an integer
    number of 1/n turns, read from a table of the n roots of unity, so it
    is exact on the lattice; a cell is read modulo the sizes."""
    for m, n in zip(_turns(sizes, wavenumbers, cells), sizes):
        row = row * np.exp(TWO_PI * 1j * np.arange(n) / n)[m]
    return row


def point_reader(grid, cells, multipliers=None, cols=None, base=None):
    """Reader of physical values at a few cells straight from a half spectrum.

    read(hat)[p] equals SpectralField(grid, hat, "fourier").to_physical()
    .values[cells[p]] to rounding, for any half spectrum hat: it is
    Re(W @ hat) with W[p, k] = c(k0) e^{2 pi i k x_p} / vol, c the c2r
    weights.  The real part is the projection the inverse real transform
    applies on the self-conjugate planes.  W is built once; a read is one
    real matvec: Re W against a real hat (a periodogram, say), and the
    interleaved (Re W, -Im W) against the float view of a complex one, so no
    input is upcast to complex.  The phases are lattice_phase's: exact on
    the lattice, and a cell is read modulo the grid sizes.

    base, if given, is a cell whose value each read subtracts: the rows are
    then W_p - W_base = W_base (e^{2 pi i k (x_p - x_base)} - 1), formed from
    e^{2 pi i s} - 1 = 2i sin(pi s) e^{i pi s} per axis, s the axis's turns
    wrapped into [-1/2, 1/2).  So a gap between two cells where the field
    varies little is read without the cancellation between two reads.

    cols, if given, restricts W to a set of spatial columns: with the half
    spectrum viewed as (time rows, flat spatial columns), hat is then the
    block hat[:, cols] of shape (rows, len(cols)), and a field that is zero
    off those columns reads exactly as in full.  All columns is the default.

    multipliers, if given, are arrays m_j in the layout of hat; the rows are
    then W m_j, and read(hat)[j * len(cells) + p] is the value of m_j hat at
    cells[p]: one matvec reads hat under every multiplier.

    read.weights is Re W, the rows a real hat is read with, one per value.
    """
    rows_n, space = grid.spectrum_shape[0], grid.sizes[1:]
    if cols is None:
        cols = np.arange(math.prod(space))
    c2r = grid.c2r_weights() / grid.volume
    wavenumbers = [np.arange(rows_n)[:, None], *column_wavenumbers(space, cols)]

    if base is None:
        weights = lattice_phase(grid.sizes, wavenumbers, cells, c2r)
    else:
        # e^{2 pi i s} - 1 over the axes: (E_a E_b - 1) = (E_a - 1) E_b + (E_b - 1)
        gap = 0.0
        for m, m_base, n in zip(_turns(grid.sizes, wavenumbers, cells),
                                _turns(grid.sizes, wavenumbers, [base]), grid.sizes):
            s = np.arange(-(n // 2), n // 2) / n
            step = (2j * np.sin(np.pi * s) * np.exp(1j * np.pi * s))[(m - m_base + n // 2) % n]
            gap = gap * (1.0 + step) + step
        weights = lattice_phase(grid.sizes, wavenumbers, [base], c2r) * gap
    weights = weights.reshape(-1, rows_n * cols.size)
    if multipliers is not None:
        weights = np.concatenate([weights * np.ravel(m) for m in multipliers])
    real_weights = np.ascontiguousarray(weights.real)
    pair_weights = np.stack([weights.real, -weights.imag], axis=-1).reshape(len(weights), -1)

    def read(hat):
        hat = np.ravel(hat)
        if np.iscomplexobj(hat):
            return pair_weights @ np.ascontiguousarray(hat, dtype=np.complex128).view(np.float64)
        return real_weights @ hat

    read.weights = real_weights
    return read


def real_defect(field):
    """Relative part of the Fourier data that no real field carries.

    This is what a round trip through physical space drops: the part of
    the self-conjugate planes that is not conjugate symmetric.  Zero (to
    rounding) for the transform of any physical field, and 0.0 for the zero
    field.  The round trip runs in one working copy, and the gap is reduced
    block by block (_real_gap).
    """
    grid = field.grid
    hat = field.to_fourier().values
    forward = np.array(hat, order="F")
    forward = _forward(grid, _inverse(grid, forward, owned=True), out=forward)
    return _real_gap(grid, hat.__getitem__, forward)


def _real_gap(grid, hat_block, forward):
    """max |hat - forward| / max |hat|, 0.0 where hat is zero, for the half
    spectrum hat whose block hat_block(block) is, over the blocks of
    _blocks(grid): no temporary of the grid's size."""
    def maxima(block):
        part = hat_block(block)
        scale = float(np.max(np.abs(part)))
        part = np.subtract(part, forward[block])
        return scale, float(np.max(np.abs(part)))

    scales, gaps = zip(*map(maxima, _blocks(grid)))
    scale = max(scales)
    return max(gaps) / scale if scale else 0.0


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


def psi_hat(t, k, m0):
    """Fourier transform exp(-t LL*) of the kernel, real and positive.

    It is formed as its time factor exp(-t (2 pi k0)^2) times its space
    factor exp(-t m0^2 |2 pi k|^8), each on its own axes before they
    broadcast.  Where t times a symbol overflows, the factor is its limit 0.
    """
    if t < 0:
        raise ConfigError(f"kernel time must be >= 0, got {t}")
    space = (0.0,) * (len(k) - 1)
    with np.errstate(over="ignore"):
        time_factor = np.exp(-t * symbol_LLstar((k[0],) + space, m0))
        space_factor = np.exp(-t * symbol_LLstar((0.0,) + tuple(k[1:]), m0))
    return time_factor * space_factor


def kernel_field(grid, t, m0=1.0):
    """The kernel psi_t sampled on the torus, as a physical-space field:
    a_t(x0) b_t(x) from its factors (_kernel_factors)."""
    a, (b,) = _kernel_factors(grid, t, m0, [(0,) * grid.d])
    return SpectralField(grid, a * b, "physical")


def _psi_hat_factors(grid, t, m0):
    """psi_hat_t's time factor, of shape (N0//2 + 1, 1, ..., 1), and space
    factor, of shape (1, N1, ..., Nd), on the grid: their product is
    psi_hat(t, grid.frequency_mesh(), m0) bit for bit, and a block of it is
    the time factor times the space factor's block."""
    k0, *space = grid.frequency_mesh()
    return psi_hat(t, (k0,) + (0.0,) * grid.d, m0), psi_hat(t, (0.0, *space), m0)


def _complex_psi_hat(grid, t, m0):
    """psi_hat_t on the grid as time-contiguous complex data, bit for bit
    psi_hat's: the product of its factors goes straight into the real part,
    with no real grid array."""
    hat = np.zeros(grid.spectrum_shape, complex, order="F")
    np.multiply(*_psi_hat_factors(grid, t, m0), out=hat.real)
    return hat


def _times_psi_hat(grid, hat, t, m0, out):
    """out = hat psi_hat_t, returned, block by block: psi_hat_t is formed a
    block at a time from its factors, so no multiplier of the grid's size."""
    time_factor, space_factor = _psi_hat_factors(grid, t, m0)
    for block in _blocks(grid):
        np.multiply(hat[block], time_factor * space_factor[block], out=out[block])
    return out


def _kernel_factors(grid, t, m0, orders):
    """(a, [b_n for n in orders]) with a * b_n the physical values of
    derivative(psi_hat_t, (0, *n)), for spatial orders n = (n1, ..., nd).

    psi_hat_t = psi_hat_t(k0, 0) psi_hat_t(0, k), so the time factor a is one
    1-D inverse transform, of shape (N0, 1, ..., 1), and each space factor
    b_n one transform over the space axes of psi_hat_t(0, k) prod_i
    (2 pi i k_i)^{n_i}, of shape (1, N1, ..., Nd).
    """
    time_hat, space_hat = _psi_hat_factors(grid, t, m0)
    a = np.fft.irfft(time_hat, n=grid.sizes[0], axis=0) * (grid.sizes[0] / grid.boxes[0])
    axes = tuple(range(1, grid.d + 1))
    scale = math.prod(grid.sizes[1:]) / math.prod(grid.boxes[1:])
    factors = []
    for n in orders:
        hat = space_hat
        for axis, order in enumerate(n, start=1):
            if order:
                hat = hat * grid.ik_power(axis, order)
        factors.append(np.fft.ifftn(hat, axes=axes).real * scale)
    return a, factors


def convolve(field, t, m0=1.0):
    """Space-time convolution with psi_t, returned in the input space."""
    grid, owned = field.grid, field.space == "physical"
    hat = field.to_fourier().values
    out = hat if owned else np.empty(grid.spectrum_shape, complex, order="F")
    hat = _times_psi_hat(grid, hat, t, m0, out)
    if not owned:
        return SpectralField(grid, hat, "fourier")
    return SpectralField(grid, _inverse(grid, hat, owned=True), "physical")


def derivative(field, orders):
    """Mixed partial derivative via the Fourier multiplier prod (2 pi i k)^n."""
    if len(orders) != field.grid.d + 1:
        raise ConfigError(
            f"need {field.grid.d + 1} derivative orders, got {len(orders)}"
        )
    owned = field.space == "physical"
    vals = field.to_fourier().values
    for axis, order in enumerate(orders):
        if order:
            vals = np.multiply(vals, field.grid.ik_power(axis, order),
                               out=vals if owned else None)
            owned = True
    if field.space == "fourier":
        return SpectralField(field.grid, vals, "fourier")
    return SpectralField(field.grid, _inverse(field.grid, vals, owned=True), "physical")


def div_symbols(grid, m0):
    """The multipliers 2 pi i k_i / symbol_L(k, m0) of L^{-1} div, one per
    spatial axis i; zero at k = 0 and on the axis's Nyquist row.  The last
    one is divided into symbol_L's array."""
    sym = symbol_L(grid.frequency_mesh(), m0)
    sym[(0,) * (grid.d + 1)] = 1.0  # where every 2 pi i k_i is zero
    return [np.divide(grid.ik_power(1 + i, 1), sym, out=sym if i == grid.d - 1 else None)
            for i in range(grid.d)]


def _sum_of_products(terms):
    """sum of mult * hat over the (mult, hat, owned) terms, accumulated in
    place in the first product; an owned hat's product overwrites it."""
    total = None
    for mult, hat, owned in terms:
        product = np.multiply(mult, hat, out=hat if owned else None)
        if total is None:
            total = product
        else:
            total += product
    return total


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
    u_hat = _sum_of_products(
        (mult, comp.to_fourier().values, comp.space == "physical")
        for mult, comp in zip(div_symbols(grid, m0), components)
    )
    if components[0].space == "fourier":
        return SpectralField(grid, u_hat, "fourier")
    return SpectralField(grid, _inverse(grid, u_hat, owned=True), "physical")


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


def semigroup_defect(grid, s, t, m0=1.0, forward=None):
    """Relative gap between psi_s * psi_t and psi_{s+t} on the torus.

    The two-step field is convolve's arithmetic, the Fourier data of psi_s
    times psi_hat_t (_times_psi_hat) through _inverse, set block by block
    against psi_{s+t} from kernel_field's factors, which run through neither
    transform.  That data is forward, if given: the forward transform of
    psi_s that realness read in kernel_checks, handed over to be
    overwritten.  Otherwise it is the forward transform of kernel_field(s)'s
    values a_s b_s, written at the front of one time-contiguous buffer and
    transformed in place, so one half spectrum is live.
    """
    if forward is None:
        forward = np.empty(grid.spectrum_shape, complex, order="F")
        a, (b,) = _kernel_factors(grid, s, m0, [(0,) * grid.d])
        physical = np.ndarray(grid.sizes, np.float64, buffer=forward, order="F")
        _forward(grid, np.multiply(a, b, out=physical), out=forward)
    two_step = _inverse(grid, _times_psi_hat(grid, forward, t, m0, out=forward), owned=True)
    a, (b,) = _kernel_factors(grid, s + t, m0, [(0,) * grid.d])

    def block_gap(block):
        part = a * b[block]
        np.subtract(two_step[block], part, out=part)
        return float(np.max(np.abs(part, out=part)))

    gap = max(map(block_gap, _blocks(grid)))
    return gap / float(np.max(np.abs(a)) * np.max(np.abs(b)))  # max |a b|: rounding is monotone


def evenness_defect(field):
    """Deviation from reflection symmetry in every spatial coordinate,
    relative to max |field|; 0.0 for the zero field.

    The reflection x -> -x reads index -j, wrapped.  Each block of the last
    spatial axis is set against its reflection, which reads the block's
    mirror columns: no temporary of the grid's size.
    """
    grid = field.grid
    vals = field.to_physical().values

    def axis_gap(block, axis):
        reflect = -np.arange(grid.sizes[axis])
        if axis == grid.d:
            mirror = vals[..., reflect[block[-1]]]
        else:
            mirror = np.take(vals[block], reflect, axis=axis)
        np.subtract(vals[block], mirror, out=mirror)
        return float(np.max(np.abs(mirror, out=mirror)))

    blocks = _blocks(grid)
    worst = max(axis_gap(block, axis) for block in blocks for axis in range(1, grid.d + 1))
    scale = max(float(np.max(np.abs(vals[block]))) for block in blocks)
    return worst / scale if scale else 0.0


def scaling_defect(grid, t, m0=1.0):
    """Relative L2 gap in psi_{sigma^8 t}(sigma^4 x0, sigma x1) = sigma^-D psi_t(x)
    at sigma = 2.

    An integer sigma keeps the rescaled points on the lattice.  The
    comparison runs over the window where the rescaled coordinates stay
    within a quarter period of the torus: outside it the left-hand side
    picks up the periodic images of the kernel (equivalently, subsampling
    the coarse kernel in Fourier space periodises it with the shrunken
    box), which the identity on the plane knows nothing about.  Both
    kernels are read on their windows as a_t(x0) b_t(x1), from the time and
    space factors of psi_t (_kernel_factors).
    """
    if grid.d != 1:
        raise ConfigError("the scaling check is wired for d = 1")
    sigma = 2
    n0, n1 = grid.sizes
    w0 = n0 // (4 * sigma**4)
    w1 = n1 // (4 * sigma)
    if w0 < 2 or w1 < 2:
        raise ConfigError("grid too coarse for the scaling window")
    # t before sigma^8 t, so a refused time is the one given
    fine_a, (fine_b,) = _kernel_factors(grid, t, m0, [(0,)])
    coarse_a, (coarse_b,) = _kernel_factors(grid, (sigma**8) * t, m0, [(0,)])
    j0 = np.arange(-w0, w0 + 1)[:, None]
    j1 = np.arange(-w1, w1 + 1)
    fine_win = fine_a[j0 % n0, 0] * fine_b[0, j1 % n1]
    coarse_win = coarse_a[(sigma**4 * j0) % n0, 0] * coarse_b[0, (sigma * j1) % n1]
    mapped = float(sigma) ** (4 + grid.d) * coarse_win
    return float(np.linalg.norm(mapped - fine_win) / np.linalg.norm(fine_win))


def moment_bound_spreads(grid, times, m0=1.0):
    """max/min - 1 of the moment ratios over the time window, per (n, theta).

    The ratio is the grid value of
    t^{(|n|-theta)/8} integral |d^n psi_t(z)| (t^{1/8}+|z|_s)^theta dz,
    which the kernel bound keeps below a constant uniformly in t, for the
    spatial derivatives n = (0, 0), ..., (0, 3) (|n| = 4 n0 + n1 <= 3) and
    theta in {-1, 0, 1}.

    The integrand is read from the factors of the kernel (_kernel_factors):
    |d^n psi_t(z)| = |a_t(z0)| |b_t^(n)(z1)|, one 1-D transform per factor.
    The weight w = c + u(z0) + v(z1), with c = t^{1/8}, u = |z0|^{1/4} and
    v = |z1|, is additive, so theta = 0 is a product of two 1-D sums,
    theta = 1 is three such products, and theta = -1 is one contraction
    |a|^T (1/w) |b^(n)| over the four orders.  The one grid-sized array
    is 1/w, refilled in place for each t.  A spread that is not finite, as
    when a ratio underflows to 0 because psi_t fills a small box, is a
    NumericError naming the ratio, its t and the boxes.
    """
    if grid.d != 1:
        raise ConfigError("the moment derivative orders are wired for d = 1")
    u, v = (np.abs(grid.coordinates(axis, centered=True)) for axis in (0, 1))
    u = u**0.25
    inv_w = np.empty(grid.sizes)
    acc = {}
    times = np.asarray(times, dtype=float)
    for t in times:
        a, factors = _kernel_factors(grid, t, m0, [(n1,) for n1 in range(4)])
        a, b = np.abs(a[:, 0]), np.abs(np.concatenate(factors))
        c = t**0.125
        np.add.outer(c + u, v, out=inv_w)
        np.reciprocal(inv_w, out=inv_w)
        a_sum, b_sums = a.sum(), b.sum(axis=1)
        per_theta = (
            b @ (a @ inv_w),
            a_sum * b_sums,
            (c * a_sum + a @ u) * b_sums + a_sum * (b @ v),
        )
        for n1 in range(4):
            for theta, weighted in zip((-1, 0, 1), per_theta):
                ratio = t ** ((n1 - theta) / 8.0) * float(weighted[n1] * grid.cell)
                acc.setdefault(((0, n1), theta), []).append(ratio)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spreads = {key: max(vals) / min(vals) - 1.0 for key, vals in acc.items()}
    for key, spread in spreads.items():
        if not math.isfinite(spread):
            j = int(np.argmin(acc[key]))
            raise NumericError(f"moment ratio ((0, n1), theta) = {key} is {acc[key][j]:g} at "
                               f"t = {times[j]:g} on boxes {grid.boxes}: its spread is not finite")
    return spreads


def inversion_residual(grid, m0=1.0):
    """(residual, realness) of solve_L_div on random real input (seed 0),
    band limited to the wavenumbers |j| < N_i/4 on each axis.

    The band is every mode of the half lattice except its Nyquist rows: the
    lattice of M_i = 2 ceil(N_i/4) points per axis (N_i/2 where 4 divides
    N_i) over the same boxes, whose wavenumbers -M_i/2, ..., M_i/2 - 1 are
    the band plus the Nyquist row j = -M_i/2.  A frequency is j / box on
    either lattice, so the check runs on the half lattice: the input is
    drawn there and its Nyquist rows are zeroed in place in the forward
    transform's output.

    residual -- relative gap ||L u_hat - div_hat|| / ||div_hat|| in Fourier
                space (div_hat has no zero mode), where u_hat comes from
                solve_L_div and L is applied as d_0 + m0 (sum_i d_i^2)^2
                from ik_power alone, never from symbol_L; so a wrong
                symbol in solve_L_div shows, while a right one leaves
                rounding level.  Input and u_hat stay in Fourier space, so
                it does not check the inverse transform
    realness -- real_defect of u: the part of its spectrum no real field has
    """
    half = make_grid(grid.d, [2 * -(-n // 4) for n in grid.sizes], grid.boxes)
    rng = np.random.default_rng(0)
    comps = []
    for _ in range(half.d):
        hat = SpectralField(half, rng.standard_normal(half.sizes), "physical").to_fourier().values
        for axis, n in enumerate(half.sizes):
            hat.swapaxes(0, axis)[n // 2] = 0.0  # on the time axis, the last row
        comps.append(SpectralField(half, hat, "fourier"))
    u_hat = solve_L_div(comps, m0)
    # np.linalg.norm sums in memory order, so both norms read C-ordered
    # arrays: gap is one by broadcasting, div_hat a copy of the sum
    div_hat = np.empty(half.spectrum_shape, complex)
    div_hat[...] = _sum_of_products(
        (half.ik_power(1 + i, 1), c.values, True) for i, c in enumerate(comps)
    )
    del comps, hat  # hat is the last component's array
    lap = sum(half.ik_power(1 + i, 2) for i in range(half.d))
    gap = half.ik_power(0, 1) + m0 * lap**2
    gap *= u_hat.values
    gap -= div_hat
    residual = float(np.linalg.norm(gap) / np.linalg.norm(div_hat))
    del gap, div_hat
    return residual, real_defect(u_hat)


def kernel_checks(grid, m0=1.0, scaling_time=3e-13):
    """Run every discrete kernel check; returns the measured defects.

    Keys: semigroup, evenness, realness, scaling, inversion_residual,
    inversion_realness, moment_spread (dict over (orders, theta) of
    max/min - 1 across the time window of five times from 1e-12 to 1e-10).
    A grid that breaks the mesh rule (check_mesh) is a NumericError.

    The full-grid checks are one chain of three transforms on psi_hat_s,
    s = 1e-12, in the one time-contiguous buffer that _complex_psi_hat
    allocates: evenness reads its inverse, packed at the buffer's front; the
    forward transform of that goes back into the buffer, and realness sets it
    against psi_hat_s, formed a block at a time from its factors; semigroup
    takes it times psi_hat_t, t = 9e-12, back through the inverse in place,
    against kernel_field(s + t).  So one half spectrum is live, plus a block.
    """
    m0 = check_m0(m0)
    check_mesh(grid, m0)
    scaling = scaling_defect(grid, scaling_time, m0)  # refuses d != 1 before the grid checks
    times = np.geomspace(1e-12, 1e-10, 5)
    s = float(times[0])
    work = _complex_psi_hat(grid, s, m0)
    physical = _inverse(grid, work, owned=True)
    evenness = evenness_defect(SpectralField(grid, physical, "physical"))
    forward = _forward(grid, physical, out=work)
    del physical, work
    time_factor, space_factor = _psi_hat_factors(grid, s, m0)
    realness = _real_gap(grid, lambda block: time_factor * space_factor[block], forward)
    out = {
        "semigroup": semigroup_defect(grid, s, 9.0 * s, m0, forward=forward),
        "evenness": evenness,
        "realness": realness,
        "scaling": scaling,
    }
    del forward  # overwritten by semigroup_defect
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
        with open(path, "wb") as out:
            for row in field.values:  # C order a time row at a time, no whole copy
                out.write(np.ascontiguousarray(row, dtype="<f8"))
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
