"""The three benchmark workloads: job plans, job bodies and output checks.

Each workload is a closed loop driven by one client in one process: the
next job starts when the previous one has finished.  Jobs come in cycles.
A cycle is a fixed mix of job kinds whose parameters are stratified over
their ranges, so every cycle carries the same amount of work whatever the
seed; only the points inside the strata and the order change with it.

A run does a fixed number of whole cycles, ``round(seconds / cycle_s)``.
``cycle_s`` is the time one cycle took at the seed commit (2-core Intel
Xeon, Python 3.11, numpy 2.4, scipy 1.17), so a run of the seed code
measures about ``seconds`` and every run of any code does the same work.
``setup_repeats`` is how many fresh interpreters a run starts to time the
set-up; a cheap set-up is repeated more, so that its median rests on
enough samples.  ``probe`` names the host-speed probe in hostclock.py
that the workload's times are normalized by: the one whose work is
closest to the workload's.

Library calls go through module attributes (``hierarchy.build_dag``, not a
bare ``build_dag``) so that the traced run can rebind them in one place.
"""

import itertools
import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """A job produced an output that failed its check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _strata(rng, lo, hi, n):
    """One uniform draw inside each of n equal strata of [lo, hi), shuffled."""
    width = (hi - lo) / n
    points = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(points)
    return points


# ---------------------------------------------------------------------------
# algebra: enumeration, the model hierarchy and the structure group
# ---------------------------------------------------------------------------

ALPHA_RANGE = (0.52, 0.98)
# Jobs are sized by node count, not by a fixed cutoff: the populated set of
# each job lies in this band, as close to the target as the homogeneity
# breakpoints of its alpha allow.
NODE_BAND = (40, 70)
NODE_TARGET = 50
# enumeration cutoff that puts at least one breakpoint inside the band for
# every alpha in ALPHA_RANGE
BAND_SEARCH_CUTOFF = {1: 4.2, 2: 3.8}
MAP_SUPPORT = 16  # the structure map lives on the lowest nodes
MAP_DENSITY = 0.6
GAMMA_COLUMNS = 32  # basis columns pushed through gamma_apply per job
ENTRY_CHECKS = 3  # gamma_entry spot checks per job
ALGEBRA_CYCLE = {1: 6, 2: 2}  # jobs per cycle for each spatial dimension


class Algebra:
    name = "algebra"
    cycle_s = 1.7
    setup_repeats = 15
    probe = "python"

    def setup(self):
        from tfrenorm import group, hierarchy, indices

        self.group, self.hierarchy, self.indices = group, hierarchy, indices

    def cycle(self, rng):
        jobs = []
        for d, count in ALGEBRA_CYCLE.items():
            for alpha in _strata(rng, *ALPHA_RANGE, count):
                jobs.append(("d%d" % d, {"alpha": alpha, "d": d,
                                         "seed": rng.getrandbits(32)}))
        rng.shuffle(jobs)
        return jobs

    def band_cutoff(self, params):
        """Cutoff halfway between two homogeneity breakpoints, with the
        populated count inside NODE_BAND and closest to NODE_TARGET."""
        ind = self.indices
        nodes = ind.enumerate_populated(params, BAND_SEARCH_CUTOFF[params.d])
        homs = [ind.homogeneity(m, params) for m in nodes]
        best = None
        for count in range(NODE_BAND[0], min(NODE_BAND[1], len(homs) - 1) + 1):
            if homs[count] - homs[count - 1] < 1e-9:
                continue  # a tie: the cutoff cannot split it
            if best is None or abs(count - NODE_TARGET) < abs(best - NODE_TARGET):
                best = count
        if best is None:
            raise CheckFailed(f"no cutoff puts alpha={params.alpha} in the node band")
        return best, 0.5 * (homs[best - 1] + homs[best])

    def structure_map(self, params, low, rng):
        """Seeded admissible map with exact rational values on the low nodes."""
        ind, grp = self.indices, self.group
        letters = [n for n in itertools.product(range(3), repeat=params.d + 1)
                   if n[0] == 0 and sum(n) <= 2]
        pi = {}
        for n in letters:
            entries = {}
            for m in low:
                if ind.homogeneity(m, params) > ind.aniso_degree(n) and rng.random() < MAP_DENSITY:
                    entries[m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            if entries:
                pi[n] = entries
        return grp.StructureMap(params, pi)

    def run(self, kind, p, tracer):
        ind, grp, hie = self.indices, self.group, self.hierarchy
        rng = random.Random(p["seed"])
        params = ind.ModelParams(alpha=p["alpha"], d=p["d"], allow_rational_alpha=True)
        count, cutoff = self.band_cutoff(params)
        dag = hie.build_dag(params, cutoff)
        nodes = list(dag.nodes)
        _require(len(nodes) == count, f"build_dag gave {len(nodes)} nodes, expected {count}")
        low = nodes[:MAP_SUPPORT]
        smap = self.structure_map(params, low, rng)
        columns = rng.sample(nodes, GAMMA_COLUMNS)
        outputs = [grp.gamma_apply(grp.basis(c), smap, cutoff) for c in columns]

        # Gamma* is multiplicative: Gamma(x y) = Gamma(x) Gamma(y), truncated.
        def series():
            return grp.SeriesVector({
                m: Fraction(rng.randint(1, 5), rng.randint(1, 5))
                for m in rng.sample(low[:6], 2)
            })

        x, y = series(), series()
        lhs = grp.gamma_apply(grp.series_mul(x, y), smap, cutoff)
        rhs = grp.series_mul(grp.gamma_apply(x, smap, cutoff),
                             grp.gamma_apply(y, smap, cutoff)).truncate(params, cutoff)
        _require(dict(lhs.items()) == dict(rhs.items()),
                 f"Gamma* not multiplicative at alpha={params.alpha}, d={params.d}")

        # Spot-check gamma_entry against the gamma_apply columns.
        col, out = max(zip(columns, outputs), key=lambda pair: len(pair[1]))
        entries = sorted(out.items(), key=lambda kv: kv[0].sort_key())
        for beta, value in rng.sample(entries, min(ENTRY_CHECKS, len(entries))):
            got = grp.gamma_entry(beta, col, smap)
            _require(got == value, f"gamma_entry {got} != gamma_apply {value}")
        absent = [m for m in nodes if m not in out.coeffs]
        if absent:
            got = grp.gamma_entry(rng.choice(absent), col, smap)
            _require(got == 0, f"gamma_entry {got} where gamma_apply has no term")


# ---------------------------------------------------------------------------
# counterterms: the finite-tau constant tables
# ---------------------------------------------------------------------------

CT_ALPHA = (0.52, 0.98)
CT_LOG10_TAU = (-8.0, -2.0)
CT_M0 = (0.5, 2.0)
CT_ETA = (2.0, 3.0)
CT_PER_FAMILY = 6  # jobs per mollifier family per cycle
ANISO_REL_ERR = 1e-3


class Counterterms:
    name = "counterterms"
    cycle_s = 12.8
    setup_repeats = 7
    probe = "python"

    def setup(self):
        from tfrenorm import constants, indices

        self.constants, self.indices = constants, indices

    def cycle(self, rng):
        jobs = []
        for family in ("semigroup", "anisotropic"):
            columns = [_strata(rng, *CT_ALPHA, CT_PER_FAMILY),
                       _strata(rng, *CT_LOG10_TAU, CT_PER_FAMILY),
                       _strata(rng, *CT_M0, CT_PER_FAMILY)]
            for alpha, log_tau, m0 in zip(*columns):
                jobs.append((family, {"alpha": alpha, "tau": 10.0 ** log_tau, "m0": m0,
                                      "eta": rng.uniform(*CT_ETA)}))
        rng.shuffle(jobs)
        return jobs

    def run(self, kind, p, tracer):
        con = self.constants
        cov = con.covariance_spec(p["alpha"], p["m0"])
        moll = con.mollifier_spec(kind, p["tau"], eta=p["eta"], m0=p["m0"])
        if tracer is not None:
            cov = tracer.instrument_spec(cov)
        table = con.counterterm_table(cov, moll)
        values = (table.c1, table.c2, table.c3)
        errors = (table.err1, table.err2, table.err3)
        _require(all(math.isfinite(v) for v in values + errors), f"non-finite table {table}")
        if kind == "semigroup":
            self.check_scaling(p, values, errors)
        else:
            _require(table.c3 < 0, f"c3={table.c3} is not negative")
            for v, e in zip(values, errors):
                _require(e <= ANISO_REL_ERR * abs(v), f"error {e} above 1e-3 of {v}")

    def check_scaling(self, p, values, errors):
        """c_i = C_i tau^((2 alpha - 2)/8) m0^(e_i) exactly for the semigroup
        family; C_i comes from the independent 1-D quadrature."""
        con = self.constants
        params = self.indices.ModelParams(alpha=p["alpha"], d=1, allow_rational_alpha=True)
        universal = con.C_constants_with_errors(p["alpha"], "semigroup")
        for beta, (big_c, big_err), value, err in zip(
            (con.C1_INDEX, con.C2_INDEX, con.C3_INDEX), universal, values, errors
        ):
            tau_exp, m0_exp = con.scaling_exponents(beta, params, "semigroup")
            scale = p["tau"] ** tau_exp * p["m0"] ** m0_exp
            gap = abs(value - big_c * scale)
            tol = err + big_err * scale + 1e-14 * abs(value)
            _require(gap <= tol, f"scaling law off by {gap:.3e} > {tol:.3e} at {p}")


# ---------------------------------------------------------------------------
# spectral: Monte-Carlo estimators and the kernel checks
# ---------------------------------------------------------------------------

MC_SIZES = (64, 256)
MC_BOXES = (1.0, 1.0)
# samples per MC job: 32 let worst_z reach 9.4 on the seed code; the bphz
# jobs take more so that their class stays clear of the other two under
# timing noise, which keeps job_tail_s inside it
MC_SAMPLES = {"covariance": 64, "moment": 64, "bphz_f0f1": 96}
MC_ALPHA = (0.55, 0.95)
MC_LOG10_TAU = (-15.0, -13.0)
MC_M0 = (0.5, 2.0)
MC_T_LIST = (1e-6, 1e-5, 1e-4)
# kinds and their counts per cycle.  kernel_checks is 1 job in 40 but
# about a third of the time, so job_p50_s and job_tail_s (the 30th of 40
# jobs, inside the bphz class) fall inside the MC classes while
# jobs_per_s carries both kinds.
SPECTRAL_CYCLE = {"covariance": 13, "moment": 13, "bphz_f0f1": 13, "kernel_checks": 1}
# Batch means over 16 batches give a t statistic with 15 degrees of
# freedom.  A run checks at most ~4000 z-scores (jobs x points), so a false
# failure over a whole run stays below 1e-3 when each two-sided test has
# p = 2.5e-7: scipy.stats.t.isf(1.25e-7, 15) = 8.83.
Z_BOUND = 8.83
# the kernel identities, with the tolerances the test suite uses
KERNEL_LIMITS = {
    "semigroup": 1e-10,
    "evenness": 1e-12,
    "realness": 1e-12,
    "scaling": 1e-5,
    "inversion_residual": 1e-10,
    "inversion_realness": 1e-10,
}
MOMENT_SPREAD_LIMIT = 0.1


class Spectral:
    name = "spectral"
    cycle_s = 25.0
    setup_repeats = 7
    probe = "numpy"

    def setup(self):
        from tfrenorm import constants, kernel, mc

        self.constants, self.kernel, self.mc = constants, kernel, mc
        self.mc_grid = kernel.make_grid(d=1, sizes=MC_SIZES, boxes=MC_BOXES)
        self.checks_grid = kernel.checks_grid()

    def cycle(self, rng):
        kinds = [k for k, n in SPECTRAL_CYCLE.items() for _ in range(n)]
        rng.shuffle(kinds)
        mc_jobs = sum(k != "kernel_checks" for k in kinds)
        draws = iter(zip(_strata(rng, *MC_ALPHA, mc_jobs),
                         _strata(rng, *MC_LOG10_TAU, mc_jobs),
                         _strata(rng, *MC_M0, mc_jobs)))
        jobs = []
        for kind in kinds:
            if kind == "kernel_checks":
                jobs.append((kind, {}))
                continue
            alpha, log_tau, m0 = next(draws)
            jobs.append((kind, {"alpha": alpha, "tau": 10.0 ** log_tau, "m0": m0,
                                "seed": rng.getrandbits(32)}))
        return jobs

    def run(self, kind, p, tracer):
        if kind == "kernel_checks":
            out = self.kernel.kernel_checks(self.checks_grid)
            for key, limit in KERNEL_LIMITS.items():
                _require(out[key] < limit, f"kernel check {key}={out[key]:.3e} >= {limit}")
            worst = max(out["moment_spread"].values())
            _require(worst < MOMENT_SPREAD_LIMIT, f"moment spread {worst:.3f}")
            return
        con, mc = self.constants, self.mc
        cov = con.covariance_spec(p["alpha"], p["m0"])
        moll = con.mollifier_spec("semigroup", p["tau"], m0=p["m0"])
        if tracer is not None:
            cov = tracer.instrument_spec(cov)
        sampler = mc.NoiseSampler(self.mc_grid, cov, moll, p["seed"])
        if kind == "covariance":
            report = mc.covariance_check(sampler, n_samples=MC_SAMPLES[kind])
        elif kind == "moment":
            report = mc.pi_f0_second_moment_check(sampler, n_samples=MC_SAMPLES[kind])
        else:
            report = mc.bphz_triviality_check(sampler, MC_T_LIST, component="f0f1",
                                              n_samples=MC_SAMPLES[kind])
        values = report.estimates + report.oracles
        _require(all(math.isfinite(v) for v in values), f"non-finite {kind} report")
        _require(not any(math.isnan(z) for z in report.z_scores), f"NaN z-score in {kind}")
        worst = report.worst_z()
        _require(worst <= Z_BOUND, f"{kind}: worst z {worst:.2f} > {Z_BOUND}")


WORKLOADS = {w.name: w for w in (Algebra, Counterterms, Spectral)}
