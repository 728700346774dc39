"""Command-line frontend: one batch subcommand per engine.

Conventions shared by every subcommand:

* options come from flags, or from a flat ``key=value`` config file given
  with ``--config`` (flag wins; keys use the flag spelling with ``_`` for
  ``-``; unknown keys are rejected);
* results go to stdout, or to ``--output PATH``;
* exit codes: 0 success, 2 configuration error, 3 numerical failure,
  4 internal consistency / fixture mismatch, 141 stdout closed by its
  reader before the output was written (128 + SIGPIPE, the status a shell
  reports for a program that a closed pipe ends);
* float options, and every element of a comma list, must be finite;
* no environment variable changes the behaviour.

Only the mesh layers (kernel, mc) pull in numpy, so each runner imports
the layers it uses: the index-algebra subcommands and the constants,
counterterm, h-eval and fixtures-verify subcommands start without it.

Output is JSON unless a subcommand offers ``--format csv``; either way the
content is deterministic for a fixed config and seed, its lines end in a
bare newline, and it ends in exactly one.  JSON output is
strict: a non-finite result is a numerical failure, never ``NaN`` or
``Infinity`` on stdout.  Every CSV output goes through one ``csv.writer``
(``_csv``), so a field that holds a comma, such as the index ``g(0,1)`` or
the lattice point ``(0, 1)``, is quoted.  No other module formats what a
subcommand prints: the layers return values and dicts.  ``--alpha``, one
exact option shared by every subcommand, reaches the numeric layers as its
float.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, ConsistencyError, NumericError
from .group import gamma_entry, structure_map_from_json
from .hierarchy import dependencies, c_dependencies, expand, expansion_to_json, render_expansion
from .indices import (
    ModelParams,
    bracket,
    choose_kappa,
    enumerate_populated,
    format_multiindex,
    homogeneity,
    is_populated,
    is_purely_polynomial,
    order_length,
    parse_multiindex,
)


# ---------------------------------------------------------------------------
# option plumbing: one table drives the parser, the config file, and help
# ---------------------------------------------------------------------------


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _fraction(text):
    """The exact value of a decimal or a p/q string, so 0.55 is 11/20.  Its
    float must be finite, as for _float; a decimal whose float is 0 is 0."""
    try:
        value = Fraction(text) if "/" in text or _float(text) else Fraction(0)
        float(value)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite number: {text!r}") from None
    return value


def _floats(text):
    return tuple(_float(part) for part in text.split(","))


def _ints(text):
    return tuple(int(part) for part in text.split(","))


def _choice(*allowed):
    def convert(text):
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {text!r}")
        return text

    return convert


class _Opt:
    """One option: flag registration, config-file key, and conversion."""

    def __init__(self, name, convert, default=None, required=False, help=""):
        self.name = name
        self.convert = convert
        self.default = default
        self.required = required
        self.help = help

    def register(self, parser):
        flag = "--" + self.name.replace("_", "-")
        parser.add_argument(flag, dest=self.name, type=str, default=None, help=self.help)

    def finalise(self, raw):
        if raw is None:
            return None
        try:
            return self.convert(raw)
        except ValueError as exc:
            raise ConfigError(f"option {self.name!r}: {exc}") from None


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def _merge(args, opts):
    """Flags override config-file values override declared defaults."""
    cfg = _load_config(args.config) if args.config else {}
    known = {o.name for o in opts}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    out = {}
    for o in opts:
        value = getattr(args, o.name)
        if value is None:
            value = cfg.get(o.name, o.default)
        value = o.finalise(value)
        if value is None and o.required:
            raise ConfigError(f"missing required option {o.name!r}")
        out[o.name] = value
    return out


def _emit(text, path):
    """Write text, which ``_to_json`` and ``_csv`` end in one newline."""
    if path in (None, "-"):
        print(text, end="", flush=True)  # a closed pipe fails here, inside main
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from None


def _to_json(doc):
    try:
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    except ValueError:
        raise NumericError("the result is not finite") from None


def _csv(rows):
    """The rows as ``csv.writer`` writes them, each line ending in a bare
    newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# shared option groups -------------------------------------------------------

_OUTPUT = [_Opt("output", str, help="write to this path instead of stdout")]
_FORMAT = [_Opt("format", _choice("json", "csv"), default="json",
                help="output format (default json)")]
_ALPHA = _Opt("alpha", _fraction, required=True,
              help="regularity exponent, a decimal or p/q, exact as in ModelParams: 0.6 "
                   "is 3/5; in (max(0, 3/2 - D/4), 1) with D = 4 + d for the index "
                   "algebra, so (1/4, 1) at d = 1, and in [1/2, 1) for constants, (1/2, 1) "
                   "for counterterm, h-eval and simulate")
_PARAMS = [
    _ALPHA,
    _Opt("d", int, default="1", help="spatial dimension (default 1)"),
    _Opt("lam", _float, default="0.4", help="ordering weight in (0, 1/2)"),
]
_FAMILY = [_Opt("mollifier", _choice("semigroup", "anisotropic"), default="semigroup",
                help="mollifier family (default semigroup)")]
_ETA = [_Opt("eta", _float, default="2.0", help="anisotropic aspect exponent (default 2)")]
_MOLLIFIER = [
    _Opt("tau", _float, required=True, help="mollification scale, > 0"),
    _Opt("m0", _float, default="1.0", help="operator coefficient (default 1)"),
] + _FAMILY + _ETA


def _model_params(cfg):
    return ModelParams(alpha=cfg["alpha"], d=cfg["d"], lam=cfg["lam"])


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def run_enumerate(cfg):
    params = _model_params(cfg)
    indices = enumerate_populated(params, cfg["cutoff"], max_count=cfg["max_count"])
    if cfg["format"] == "csv":
        return _csv([("index", "homogeneity"),
                     *((format_multiindex(b), homogeneity(b, params)) for b in indices)])
    return _to_json(
        {
            "alpha": float(params.alpha),
            "d": params.d,
            "cutoff": float(cfg["cutoff"]),
            "count": len(indices),
            "indices": [format_multiindex(b) for b in indices],
        }
    )


def run_homogeneity(cfg):
    params = _model_params(cfg)
    beta = parse_multiindex(cfg["beta"], expected_arity=params.arity)
    return _to_json(
        {
            "beta": format_multiindex(beta),
            "bracket": bracket(beta),
            "homogeneity": homogeneity(beta, params),
            "order_length": order_length(beta, params),
            "populated": is_populated(beta),
            "purely_polynomial": is_purely_polynomial(beta),
        }
    )


def run_expand(cfg):
    params = _model_params(cfg)
    beta = parse_multiindex(cfg["beta"], expected_arity=params.arity)
    terms = expand(beta, params, cfg["mode"])
    doc = expansion_to_json(params, {beta: terms}, cfg["mode"])
    doc["display"] = render_expansion(beta, terms)
    return _to_json(doc)


def run_deps(cfg):
    params = _model_params(cfg)
    beta = parse_multiindex(cfg["beta"], expected_arity=params.arity)

    def names(indices):
        return [format_multiindex(m) for m in sorted(indices, key=lambda m: m.sort_key())]

    return _to_json(
        {
            "beta": format_multiindex(beta),
            "mode": cfg["mode"],
            "dependencies": names(dependencies(beta, params, cfg["mode"])),
            "c_dependencies": names(c_dependencies(beta, params, cfg["mode"])),
        }
    )


def run_gamma_entry(cfg):
    try:
        doc = json.loads(Path(cfg["map"]).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read structure map {cfg['map']!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"structure map {cfg['map']!r} is not valid JSON: {exc}") from None
    smap = structure_map_from_json(doc)
    arity = smap.params.arity
    beta = parse_multiindex(cfg["beta"], expected_arity=arity)
    gamma = parse_multiindex(cfg["gamma"], expected_arity=arity)
    value = gamma_entry(beta, gamma, smap)
    return _to_json(
        {
            "beta": format_multiindex(beta),
            "gamma": format_multiindex(gamma),
            "value": value if isinstance(value, (int, float)) else str(value),
        }
    )


def run_kappa(cfg):
    params = _model_params(cfg)
    kappa = choose_kappa(params, cutoff=cfg["cutoff"])
    return _to_json({"alpha": float(params.alpha), "d": params.d, "kappa": kappa})


def run_kernel_check(cfg):
    from .kernel import checks_grid, kernel_checks, make_grid

    if (cfg["sizes"] is None) != (cfg["boxes"] is None):
        raise ConfigError("give both sizes and boxes, or neither")
    if cfg["sizes"] is None:
        grid = checks_grid()
    else:
        grid = make_grid(
            d=len(cfg["sizes"]) - 1, sizes=cfg["sizes"], boxes=cfg["boxes"]
        )
    checks = kernel_checks(grid, m0=cfg["m0"], scaling_time=cfg["scaling_time"])
    doc = {key: value for key, value in checks.items() if key != "moment_spread"}
    doc["moment_spread"] = [
        {"orders": list(orders), "theta": theta, "spread": spread}
        for (orders, theta), spread in sorted(checks["moment_spread"].items())
    ]
    return _to_json(doc)


def run_constants(cfg):
    from .constants import C_constants_with_errors, tfe_leading_form

    alpha = float(cfg["alpha"])
    (c1, e1), (c2, e2), (c3, e3) = C_constants_with_errors(alpha, cfg["mollifier"])
    doc = {
        "alpha": alpha,
        "mollifier": cfg["mollifier"],
        "C1": c1, "err1": e1,
        "C2": c2, "err2": e2,
        "C3": c3, "err3": e3,
    }
    if cfg["format"] == "csv":
        return _csv([doc.keys(), doc.values()])
    if cfg["mollifier"] == "anisotropic":
        # the mobility power m enters neither the coefficient nor the exponent
        lead = tfe_leading_form(1, alpha)
        doc["leading_form"] = {
            "coefficient": lead.coefficient,
            "density_exponent": lead.density_exponent,
            "form": lead.form,
        }
    return _to_json(doc)


def run_counterterm(cfg):
    from .constants import counterterm_table, covariance_spec, mollifier_spec, table_to_json

    tables = [
        counterterm_table(
            covariance_spec(float(cfg["alpha"]), m0),
            mollifier_spec(cfg["mollifier"], tau, eta=cfg["eta"], m0=m0),
        )
        for tau in cfg["tau"]
        for m0 in cfg["m0"]
    ]
    if cfg["format"] == "csv":
        return _csv([
            ("alpha", "tau", "m0", "mollifier", "c1", "err1", "c2", "err2", "c3", "err3"),
            *((t.alpha, t.tau, t.m0, t.mollifier, f"{t.c1:.12e}", f"{t.err1:.3e}",
               f"{t.c2:.12e}", f"{t.err2:.3e}", f"{t.c3:.12e}", f"{t.err3:.3e}")
              for t in tables),
        ])
    return _to_json({"tables": [table_to_json(t) for t in tables]})


def run_h_eval(cfg):
    from .constants import (
        counterterm_h, counterterm_table, covariance_spec, mollifier_spec, table_to_json,
    )

    cov = covariance_spec(float(cfg["alpha"]), cfg["m0"])
    moll = mollifier_spec(cfg["mollifier"], cfg["tau"], eta=cfg["eta"], m0=cfg["m0"])
    table = counterterm_table(cov, moll)
    value = counterterm_h(cfg["a"], cfg["a_prime"], cfg["b"], cfg["b_prime"], table)
    return _to_json(
        {
            "h": value,
            "inputs": {
                "a": cfg["a"], "a_prime": cfg["a_prime"],
                "b": cfg["b"], "b_prime": cfg["b_prime"],
            },
            "constants": table_to_json(table),
        }
    )


def run_simulate(cfg):
    from .constants import covariance_spec, mollifier_spec
    from .kernel import make_grid
    from .mc import (
        NoiseSampler,
        bphz_triviality_check,
        covariance_check,
        pi_f0_second_moment_check,
        scaling_fit,
    )

    task = cfg["task"]
    # an option a task does not read is refused rather than ignored, so the
    # options below take their defaults only here; moment and bphz f0f1
    # refuse --x themselves, as they average over base points
    sampled = ("covariance", "moment", "bphz")
    for option, readers in (("x", ("moment", "bphz")), ("dump", ("moment",)),
                            ("window", ("scaling",)), ("component", ("bphz",)),
                            ("t_list", ("bphz",)), ("samples", sampled), ("seed", sampled)):
        if cfg[option] is not None and task not in readers:
            raise ConfigError(f"--task {task} does not read --{option.replace('_', '-')}")
    # the scaling task's sampler gets seed 0, which nothing reads
    defaults = {"component": "f0", "t_list": (1e-6, 1e-5, 1e-4), "samples": 256, "seed": 0}
    cfg = {**cfg, **{key: value for key, value in defaults.items() if cfg[key] is None}}
    if task == "scaling" and cfg["window"] is None:
        raise ConfigError("--task scaling needs --window lo,hi (half a decade or more)")
    sizes, boxes = cfg["sizes"], cfg["boxes"]
    if len(sizes) != len(boxes):
        raise ConfigError(f"sizes {sizes} and boxes {boxes} differ in length")
    grid = make_grid(d=len(sizes) - 1, sizes=sizes, boxes=boxes)
    cov = covariance_spec(float(cfg["alpha"]), cfg["m0"])
    moll = mollifier_spec(cfg["mollifier"], cfg["tau"], eta=cfg["eta"], m0=cfg["m0"])
    sampler = NoiseSampler(grid, cov, moll, cfg["seed"])
    x = cfg["x"]
    if task == "covariance":
        report = covariance_check(sampler, n_samples=cfg["samples"])
    elif task == "moment":
        report = pi_f0_second_moment_check(
            sampler, x=x, n_samples=cfg["samples"], dump_path=cfg["dump"]
        )
    elif task == "bphz":
        report = bphz_triviality_check(
            sampler, cfg["t_list"], component=cfg["component"],
            x=x, n_samples=cfg["samples"],
        )
    elif task == "scaling":
        doc = {"task": "scaling", "deterministic_slope": scaling_fit(sampler, cfg["window"])}
        return _csv([doc.keys(), doc.values()]) if cfg["format"] == "csv" else _to_json(doc)
    else:  # unreachable: the option converter restricts the choices
        raise ConfigError(f"unknown simulate task {task!r}")
    if cfg["format"] == "csv":
        return _csv([
            ("point", "estimate", "standard_error", "oracle", "z"),
            *zip(report.points, report.estimates, report.standard_errors, report.oracles,
                 report.z_scores),
        ])
    return _to_json(dataclasses.asdict(report))


def run_fixtures_verify(cfg):
    from .verify import verify_fixtures

    counts = verify_fixtures(fixtures_dir=cfg["fixtures_dir"])
    return _to_json({"status": "ok", "replayed": counts})


# ---------------------------------------------------------------------------
# registration and dispatch
# ---------------------------------------------------------------------------

_BETA = [_Opt("beta", str, required=True, help="multiindex, e.g. f0+f1")]
_MODE = [_Opt("mode", _choice("raw", "reduced"), default="raw",
              help="counterterm columns: raw keeps all, reduced drops parity-killed ones")]

_SUBCOMMANDS = {
    "enumerate": (
        run_enumerate,
        _PARAMS + _FORMAT + _OUTPUT + [
            _Opt("cutoff", _fraction, required=True,
                 help="homogeneity cutoff, a decimal or p/q, taken exactly"),
            _Opt("max_count", int, default="200000",
                 help="abort past this many indices (default 200000)"),
        ],
        "list populated multiindices below a homogeneity cutoff",
    ),
    "homogeneity": (
        run_homogeneity,
        _PARAMS + _BETA + _OUTPUT,
        "gradings and predicates of one multiindex",
    ),
    "expand": (
        run_expand,
        _PARAMS + _BETA + _MODE + _OUTPUT,
        "right-hand-side expansion of one model component",
    ),
    "deps": (
        run_deps,
        _PARAMS + _BETA + _MODE + _OUTPUT,
        "model and constant dependencies of one component",
    ),
    "gamma-entry": (
        run_gamma_entry,
        [
            _Opt("map", str, required=True,
                 help="JSON file with the structure-map families"),
            _Opt("beta", str, required=True, help="row multiindex"),
            _Opt("gamma", str, required=True, help="column multiindex"),
        ] + _OUTPUT,
        "one matrix entry of the recentering map",
    ),
    "kappa": (
        run_kappa,
        _PARAMS + _OUTPUT + [
            _Opt("cutoff", _fraction,
                 help="homogeneity cutoff for the window, a decimal or p/q "
                      "(default 3 + alpha + 1/2)"),
        ],
        "admissible remainder exponent for the kernel truncation",
    ),
    "kernel-check": (
        run_kernel_check,
        _OUTPUT + [
            _Opt("m0", _float, default="1.0", help="operator coefficient"),
            _Opt("sizes", _ints, help="grid sizes, e.g. 512,4096"),
            _Opt("boxes", _floats, help="torus lengths, e.g. 0.0001,4.0"),
            _Opt("scaling_time", _float, default="3e-13",
                 help="kernel time for the rescaling identity"),
        ],
        "discrete kernel identities: semigroup, scaling, moments, inversion",
    ),
    "constants": (
        run_constants,
        _FORMAT + _OUTPUT + _FAMILY + [_ALPHA],
        "universal small-tau constants (C1, C2, C3) in closed form, with rounding bounds;"
        " the anisotropic family adds the leading thin-film form C2/4 + C3 - C1/2",
    ),
    "counterterm": (
        run_counterterm,
        _FORMAT + _OUTPUT + _FAMILY + _ETA + [
            _ALPHA,
            _Opt("tau", _floats, required=True,
                 help="mollification scales, comma-separated for a sweep"),
            _Opt("m0", _floats, default="1.0",
                 help="operator coefficients, comma-separated for a sweep"),
        ],
        "finite-tau counterterm constants; a sweep runs serially in (tau, m0) order",
    ),
    "h-eval": (
        run_h_eval,
        _MOLLIFIER + _OUTPUT + [
            _ALPHA,
            _Opt("a", _float, required=True, help="quasilinear coefficient a(u)"),
            _Opt("a_prime", _float, required=True, help="derivative a'(u)"),
            _Opt("b", _float, required=True, help="noise coefficient b(u)"),
            _Opt("b_prime", _float, required=True, help="derivative b'(u)"),
        ],
        "pointwise counterterm h from the constant table",
    ),
    "simulate": (
        run_simulate,
        _MOLLIFIER + _FORMAT + _OUTPUT + [
            _Opt("task", _choice("covariance", "moment", "bphz", "scaling"),
                 required=True, help="which estimator to run"),
            _ALPHA,
            _Opt("sizes", _ints, default="64,256",
                 help="grid sizes, time first (default 64,256)"),
            _Opt("boxes", _floats, default="1.0,1.0",
                 help="torus lengths, time first (default 1.0,1.0)"),
            _Opt("seed", int, help="sampler seed for covariance, moment and bphz (default 0)"),
            _Opt("samples", int,
                 help="Monte Carlo sample count for covariance, moment and bphz, 4 to "
                      "2^56 (default 256)"),
            _Opt("component", _choice("f0", "f0f1"),
                 help="model component for bphz (default f0)"),
            _Opt("window", _floats,
                 help="fit window lo,hi in torus units, spanning half a decade or "
                      "more (--task scaling only, which requires it)"),
            _Opt("t_list", _floats,
                 help="kernel times for the bphz check (default 1e-6,1e-5,1e-4)"),
            _Opt("x", _ints, help="base grid point of --task bphz --component f0, e.g. "
                                  "3,17 (default the origin); every other task refuses "
                                  "it: moment and bphz f0f1 average over every base "
                                  "point, covariance and scaling read none"),
            _Opt("dump", str, help="dump the averaged moment field to this path "
                                   "(--task moment only)"),
        ],
        "Monte Carlo estimators with same-grid oracles",
    ),
    "fixtures-verify": (
        run_fixtures_verify,
        _OUTPUT + [
            _Opt("fixtures_dir", str,
                 help="replay fixtures from this directory instead of the package"),
        ],
        "replay all golden fixtures; exit 4 on any drift",
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfrenorm",
        description="workbench for renormalising the stochastic thin-film equation",
        epilog="exit status: 0 success, 2 configuration error, 3 numerical failure, "
               "4 internal consistency or fixture mismatch, 141 stdout closed by "
               "its reader before the output was written",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, (runner, opts, description) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=description, description=description)
        sub.add_argument(
            "--config", type=str, default=None,
            help="flat key=value file supplying defaults for any option",
        )
        for opt in opts:
            opt.register(sub)
        sub.set_defaults(_runner=runner, _opts=opts)
    return parser


def dispatch(argv):
    args = build_parser().parse_args(argv)
    cfg = _merge(args, args._opts)
    text = args._runner(cfg)
    _emit(text, cfg.get("output"))
    return 0


def main(argv=None):
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush at
        # exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
