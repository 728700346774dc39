"""Golden-fixture verification.

Every numeric or combinatorial artefact the package ships — hierarchy
expansions, substitution-operator rows, the renormalisation candidate set,
population counts, and the counterterm constants — is stored as a JSON
fixture and replayed here against a fresh computation.  A mismatch anywhere
raises ConsistencyError carrying a line-per-defect diff, so drift between
the code and its frozen outputs can never pass silently.

Fixtures normally load from the installed package; ``fixtures_dir``
redirects every reader to an external directory, which is how the
tamper-detection tests feed in perturbed copies.
"""

import json
from importlib import resources
from pathlib import Path

from .constants import (
    C_constants_with_errors,
    counterterm_table,
    covariance_spec,
    mollifier_spec,
    table_to_json,
)
from .errors import ConfigError, ConsistencyError, WorkbenchError
from .group import d0_power_row
from .hierarchy import expand, term_to_json
from .indices import (
    ModelParams,
    format_multiindex,
    enumerate_populated,
    parse_multiindex,
    renormalisation_candidates,
)

FIXTURE_NAMES = (
    "hierarchy.json",
    "d0_rows.json",
    "candidates.json",
    "enumeration.json",
    "constants.json",
)

# Replayed error bounds are added to the stored ones, plus this floor,
# to form the comparison tolerance for each constant.
_ABS_FLOOR = 1e-12


def load_fixture(name, fixtures_dir=None):
    """Parse one fixture, from the package or from ``fixtures_dir``."""
    if fixtures_dir is not None:
        path = Path(fixtures_dir) / name
        if not path.is_file():
            raise ConfigError(f"fixture {name!r} not found under {fixtures_dir!r}")
        text = path.read_text()
    else:
        ref = resources.files("tfrenorm").joinpath("fixtures", name)
        if not ref.is_file():
            raise ConfigError(f"packaged fixture {name!r} is missing")
        text = ref.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"fixture {name!r} is not valid JSON: {exc}") from None


def _canon_term(doc):
    """Order-free canonical text of a term document.

    Factor lists and c-lists are multisets, and the term order inside an
    expansion is immaterial, so both are sorted before serialising; every
    number is kept verbatim so any value drift still shows.
    """
    out = dict(doc)
    out["factors"] = sorted(doc.get("factors") or [])
    if doc.get("c") is not None:
        out["c"] = sorted([cell["gamma"], cell["weight"]] for cell in doc["c"])
    return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# per-fixture replays: each returns a list of defect lines (empty = clean)
# ---------------------------------------------------------------------------


def verify_hierarchy(doc):
    """Re-expand every stored index and compare the term multisets."""
    params = ModelParams(alpha=doc["alpha"], d=doc["d"], lam=doc["lam"])
    arity = 1 + params.d
    problems = []
    for ent in doc["entries"]:
        name = ent["beta"]
        beta = parse_multiindex(name, expected_arity=arity)
        got = sorted(
            _canon_term(term_to_json(t)) for t in expand(beta, params, doc["mode"])
        )
        want = sorted(_canon_term(t) for t in ent["terms"])
        if got != want:
            extra = [t for t in got if t not in want]
            missing = [t for t in want if t not in got]
            problems.append(
                f"hierarchy[{name}]: expansion drifted "
                f"(+{len(extra)} new, -{len(missing)} stored); "
                f"first difference: {(extra or missing)[0]}"
            )
    return len(doc["entries"]), problems


def verify_d0_rows(doc):
    """Recompute each stored substitution-operator power row."""
    problems = []
    for ent in doc["rows"]:
        beta = parse_multiindex(ent["beta"])
        got = {
            format_multiindex(g): w for g, w in d0_power_row(beta, ent["m"]).items()
        }
        want = {cell["gamma"]: cell["weight"] for cell in ent["row"]}
        if got != want:
            problems.append(
                f"d0_rows[{ent['beta']}, m={ent['m']}]: got {got}, stored {want}"
            )
    return len(doc["rows"]), problems


def verify_candidates(doc):
    """The candidate set must replay identically at every stored alpha."""
    problems = []
    want = sorted(doc["candidates"])
    for alpha in doc["alphas"]:
        params = ModelParams(alpha=alpha, d=doc["d"])
        got = sorted(
            format_multiindex(m) for m in renormalisation_candidates(params, doc["cutoff"])
        )
        if got != want:
            problems.append(
                f"candidates[alpha={alpha}]: got {got}, stored {want}"
            )
    return len(doc["alphas"]), problems


def verify_enumeration(doc):
    """Population counts for every (alpha, d, cutoff) row."""
    problems = []
    for ent in doc["entries"]:
        params = ModelParams(alpha=ent["alpha"], d=ent["d"])
        got = len(enumerate_populated(params, ent["cutoff"]))
        if got != ent["count"]:
            problems.append(
                f"enumeration[alpha={ent['alpha']}, d={ent['d']}, "
                f"cutoff={ent['cutoff']}]: got {got}, stored {ent['count']}"
            )
    return len(doc["entries"]), problems


def verify_constants(doc):
    """Recompute every constant within the summed stored and stated errors."""
    problems = []
    for row in doc["universal"]:
        pairs = C_constants_with_errors(row["alpha"], row["mollifier"])
        for (got, got_err), key, err_key in zip(
            pairs, ("C1", "C2", "C3"), ("err1", "err2", "err3")
        ):
            tol = abs(row[err_key]) + got_err + _ABS_FLOOR
            if not abs(got - row[key]) <= tol:
                problems.append(
                    f"constants.universal[alpha={row['alpha']}, "
                    f"{row['mollifier']}].{key}: got {got!r}, stored "
                    f"{row[key]!r}, tolerance {tol:.3e}"
                )
    for row in doc["tables"]:
        cov = covariance_spec(row["alpha"], row["m0"])
        moll = mollifier_spec(
            row["mollifier"], row["tau"], eta=row.get("eta", 2.0), m0=row["m0"]
        )
        got_row = table_to_json(counterterm_table(cov, moll))
        label = (
            f"constants.tables[alpha={row['alpha']}, tau={row['tau']}, "
            f"{row['mollifier']}]"
        )
        for key, err_key in (("c1", "err1"), ("c2", "err2"), ("c3", "err3")):
            tol = abs(row[err_key]) + got_row[err_key] + _ABS_FLOOR
            if not abs(got_row[key] - row[key]) <= tol:
                problems.append(
                    f"{label}.{key}: got {got_row[key]!r}, stored "
                    f"{row[key]!r}, tolerance {tol:.3e}"
                )
    return 3 * (len(doc["universal"]) + len(doc["tables"])), problems


_VERIFIERS = {
    "hierarchy.json": verify_hierarchy,
    "d0_rows.json": verify_d0_rows,
    "candidates.json": verify_candidates,
    "enumeration.json": verify_enumeration,
    "constants.json": verify_constants,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def verify_fixtures(fixtures_dir=None):
    """Replay all fixtures; return {name: units replayed} or raise.

    Any defect — a value outside tolerance, a changed term, or fixture
    content the replay code rejects outright — raises ConsistencyError whose
    message lists every problem found across all files.
    """
    counts = {}
    problems = []
    for name in FIXTURE_NAMES:
        try:
            doc = load_fixture(name, fixtures_dir)
            checked, file_problems = _VERIFIERS[name](doc)
        except ConsistencyError:
            raise
        except (WorkbenchError, KeyError, TypeError, ValueError) as exc:
            # Content the replay cannot even process is a fixture defect,
            # not an operator error: report it through the same channel.
            checked, file_problems = 0, [f"{name}: replay failed: {exc}"]
        counts[name] = checked
        problems.extend(file_problems)
    if problems:
        raise ConsistencyError(
            "fixture verification failed "
            f"({len(problems)} defect(s)):\n  " + "\n  ".join(problems)
        )
    return counts
