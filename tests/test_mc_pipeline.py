"""The MC checks keep each draw in Fourier space: they report what the direct
physical-space loops report, within a fixed budget of transforms and
normals per sample."""

import numpy as np
import pytest

from oracles import physical_path_reports
from tfrenorm import kernel, mc
from tfrenorm.constants import covariance_spec, mollifier_spec
from tfrenorm.kernel import SpectralField, SpectralGrid

T_LIST = (1e-6, 1e-5, 1e-4)


def make_sampler(sizes, alpha, tau, m0, seed):
    grid = SpectralGrid(d=len(sizes) - 1, sizes=sizes, boxes=(1.0,) * len(sizes))
    return mc.NoiseSampler(grid=grid, spec=covariance_spec(alpha, m0),
                           moll=mollifier_spec("semigroup", tau, m0=m0), seed=seed)


CHECKS = {
    "covariance": lambda s, x, n: mc.covariance_check(s, n_samples=n),
    "pi_f0_second_moment": lambda s, x, n: mc.pi_f0_second_moment_check(s, n_samples=n),
    "bphz_f0": lambda s, x, n: mc.bphz_triviality_check(s, T_LIST, "f0", x=x, n_samples=n),
    "bphz_f0f1": lambda s, x, n: mc.bphz_triviality_check(s, T_LIST, "f0f1", n_samples=n),
}


@pytest.mark.parametrize("sizes, alpha, tau, m0, seed", [
    ((8, 32), 0.58, 1e-15, 0.6, 7),
    ((4, 8, 16), 0.6, 1e-14, 1.3, 2),
])
def test_checks_match_the_physical_path(sizes, alpha, tau, m0, seed):
    # the moment and bphz f0+f1 checks average over every base point, the
    # physical path over every cell of the grid, with the library's exact
    # variance; bphz f0 reads x alone.  The largest gaps measured are
    # 3.8e-14 of the largest estimate and 4.0e-14 in a z-score, for bphz
    # f0+f1 on 8 x 32, where the physical path's
    # mean(xi v) - mean(v (psi_t * xi)) cancels most
    sampler = make_sampler(sizes, alpha, tau, m0, seed)
    x = tuple(n // 2 - 1 for n in sizes)
    reports = {name: check(sampler, x, 32) for name, check in CHECKS.items()}
    direct = physical_path_reports(mc, sampler, reports, x)
    for name, rep in reports.items():
        want = direct[name]
        scale = np.max(np.abs(want.estimates))
        assert scale > 0.0, name
        assert np.max(np.abs(np.subtract(rep.estimates, want.estimates))) <= 1e-13 * scale, name
        assert np.max(np.abs(np.subtract(rep.z_scores, want.z_scores))) <= 1e-11, name


# transforms (forward, inverse) and calls of a point_reader read per sample
# at d = 1, and per check, a support inverse counting as an inverse
# transform: a sample is drawn in Fourier space on the support, with no
# forward transform, and summed; every check reads that sum and its oracles
# (bphz f0: its variance) on the support by point_reader, once each, with no
# transform (the moment oracle projects each L^{-1} div multiplier exactly,
# and the moment and bphz f0+f1 samples are base-point averages read from
# their draws' squares); a moment dump adds one support inverse per check,
# of the mean periodogram
BUDGET = {
    "covariance": ((0, 0, 0), (0, 0, 2)),
    "pi_f0_second_moment": ((0, 0, 0), (0, 0, 2)),
    "pi_f0_second_moment_dump": ((0, 0, 0), (0, 1, 2)),
    "bphz_f0": ((0, 0, 0), (0, 0, 2)),
    "bphz_f0f1": ((0, 0, 0), (0, 0, 2)),
}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_transform_budget_per_sample(monkeypatch, tmp_path, name):
    counts = {"fourier": 0, "physical": 0}
    for method, space in (("to_fourier", "fourier"), ("to_physical", "physical")):
        original = getattr(SpectralField, method)

        def counted(field, _original=original, _space=space):
            if field.space != _space:
                counts[_space] += 1
            return _original(field)

        monkeypatch.setattr(SpectralField, method, counted)
    support_inverse = mc._NoiseSource.inverse

    def counted_inverse(source, block):
        counts["physical"] += 1
        return support_inverse(source, block)

    monkeypatch.setattr(mc._NoiseSource, "inverse", counted_inverse)
    keyed = mc._keyed_normals

    def counted_normals():
        normals = keyed()

        def draw(key, shape):
            counts["normals"] += np.prod(shape)
            return normals(key, shape)

        return draw

    monkeypatch.setattr(mc, "_keyed_normals", counted_normals)
    reader = mc.point_reader

    def counted_reader(*args, **kwargs):
        read = reader(*args, **kwargs)

        def counted(hat):
            counts["reads"] += 1
            return read(hat)

        counted.weights = read.weights
        return counted

    monkeypatch.setattr(mc, "point_reader", counted_reader)
    sampler = make_sampler((8, 32), 0.55, 1e-9, 1.0, 3)
    used = []
    for n in (4, 8):
        counts.update(fourier=0, physical=0, normals=0, reads=0)
        if name == "pi_f0_second_moment_dump":
            mc.pi_f0_second_moment_check(sampler, n_samples=n,
                                         dump_path=tmp_path / "moment.field")
        else:
            CHECKS[name](sampler, (1, 5), n)
        used.append(np.array([counts["fourier"], counts["physical"], counts["reads"],
                              counts["normals"]]))
    per_sample = (used[1] - used[0]) // 4
    per_check = used[0] - 4 * per_sample
    assert (tuple(per_sample[:3]), tuple(per_check[:3])) == BUDGET[name]
    # normals: 2 per mode of the live columns, closed under k -> -k, and
    # none outside them
    live = np.any(sampler.density(), axis=0)
    support = np.count_nonzero(live | np.roll(live[::-1], 1))
    assert support < sampler.grid.sizes[1]
    assert (per_sample[3], per_check[3]) == (2 * sampler.grid.spectrum_shape[0] * support, 0)


# the benchmark's corners (alpha, tau, m0) on its 64 x 256 grid
CORNERS = [(0.95, 1e-13, 2.0), (0.75, 1e-14, 1.0), (0.55, 1e-15, 0.5)]


@pytest.mark.parametrize("alpha, tau, m0", CORNERS)
def test_averaged_reads_give_their_oracles_on_the_expected_power(monkeypatch, alpha, tau, m0):
    # no sampling: every draw is replaced by sqrt(vol FF), whose power
    # |xi_hat|^2 = vol FF is the mean power of a draw, so each sample reads
    # the mean of the estimate; each check's samples and oracle then share
    # one read up to the order of its rounding.  The f0+f1 oracle vanishes
    # by evenness, so its gap is taken against the sum of its terms' sizes
    sampler = make_sampler((64, 256), alpha, tau, m0, 0)
    grid = sampler.grid
    monkeypatch.setattr(mc._NoiseSource, "block", lambda source, index, comp: np.sqrt(
        grid.volume * source.density).astype(complex))
    rep = mc.pi_f0_second_moment_check(sampler, n_samples=4)
    assert np.max(np.abs(np.subtract(rep.estimates, rep.oracles))) <= 1e-14 * np.max(rep.oracles)
    rep = mc.bphz_triviality_check(sampler, T_LIST, "f0f1", n_samples=4)
    source = mc._NoiseSource(sampler)
    c = grid.c2r_weights()
    mult = source.restrict(kernel.div_symbols(grid, m0)[0])
    for t, got, oracle in zip(T_LIST, rep.estimates, rep.oracles):
        psi = source.restrict(kernel.psi_hat(t, grid.frequency_mesh(), m0))
        size = np.sum(c * (1.0 - psi) * np.abs(mult) * source.density) / grid.volume
        assert size > 0.0 and abs(got - oracle) <= 1e-14 * size, (t, got, oracle, size)


@pytest.mark.parametrize("sizes, alpha, tau, m0, seed, t_list", [
    ((8, 32), 0.58, 1e-15, 0.6, 7, T_LIST),
    ((2, 4, 8), 0.6, 1e-12, 1.0, 3, (1e-3, 1e-2)),
    ((4, 8, 16), 0.6, 1e-14, 1.3, 2, T_LIST),
    ((64, 256), 0.75, 1e-14, 1.0, 9, T_LIST),
])
def test_exact_variance_meets_the_sample_variance(monkeypatch, sizes, alpha, tau, m0, seed,
                                                  t_list):
    # every check's standard error comes from the law of the draw; over
    # 4096 draws, sqrt(mean((sample - oracle)^2)) meets that sigma within
    # 3.1% at every point (measured).  A sample sigma of n draws spreads by
    # about sqrt(kurtosis - 1) / (2 sqrt(n)), 2.9% for the kurtosis 15 of a
    # single chi^2_1 mode, so the bound is three of those.  The 2 x 4 x 8
    # grid is all self-conjugate planes, where the draws of k and -k are one
    # variable (sigma 1.43x too small if they were counted apart), and at
    # d = 2 the f0+f1 cross terms between components carry most of the
    # variance (sigma 337x too small without).  Each check reads its summed
    # power once; its per-sample reads are its own reader applied to the
    # powers (bphz f0: blocks) it summed, captured as they are formed, and
    # their mean is its estimate to rounding: within 1.3e-15 of the largest
    # read (measured)
    sampler = make_sampler(sizes, alpha, tau, m0, seed)
    readers, powers, blocks = [], [], []
    reader, power, block = mc.point_reader, mc._power, mc._NoiseSource.block

    def capture_reader(*args, **kwargs):
        readers.append(reader(*args, **kwargs))
        return readers[-1]

    def capture_power(a, b):
        p = power(a, b)
        powers.append(np.copy(p))
        return p

    def capture_block(source, index, comp):
        z = block(source, index, comp)
        blocks.append(z.copy())
        return z

    monkeypatch.setattr(mc, "point_reader", capture_reader)
    monkeypatch.setattr(mc, "_power", capture_power)
    monkeypatch.setattr(mc._NoiseSource, "block", capture_block)
    x = tuple(n // 2 - 1 for n in sizes)
    n = 4096
    for check, samples in (
            (lambda: mc.covariance_check(sampler, n_samples=n), powers),
            (lambda: mc.pi_f0_second_moment_check(sampler, n_samples=n), powers),
            (lambda: mc.bphz_triviality_check(sampler, t_list, "f0", x=x, n_samples=n), blocks),
            (lambda: mc.bphz_triviality_check(sampler, t_list, "f0f1", n_samples=n), powers)):
        del readers[:], powers[:], blocks[:]
        rep = check()
        # the check's own reader comes first; a sample's power is formed last
        rows = np.array([readers[0](p) for p in samples[-n:]])
        gap = np.max(np.abs(rows.mean(axis=0) - rep.estimates))
        assert gap <= 1e-14 * np.max(np.abs(rows)), rep.estimator
        variance = np.square(rep.standard_errors) * n
        spread = np.mean(np.square(rows - np.asarray(rep.oracles)), axis=0)
        live = variance > 0.0
        assert np.all(spread[~live] == 0.0) and np.any(live), rep.estimator
        ratio = np.sqrt(spread[live] / variance[live])
        assert np.max(np.abs(ratio - 1.0)) <= 0.087, (rep.estimator, ratio)


def test_averaged_checks_are_reproducible_from_seed_and_index():
    sampler = make_sampler((64, 256), 0.75, 1e-14, 1.0, 12)
    for check in (lambda: mc.pi_f0_second_moment_check(sampler, n_samples=8),
                  lambda: mc.bphz_triviality_check(sampler, T_LIST, "f0f1", n_samples=8)):
        assert check() == check()
