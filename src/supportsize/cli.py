"""Command-line front end: estimate, simulate, probe, coeffs, theory.

Exit codes: 0 on success, 2 for domain errors (a machine-readable JSON error
record goes to stderr), 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

import numpy as np

from . import theory
from .chebyshev import g_table, shifted_coeffs
from .errors import ParameterError, SupportSizeError
from .estimators import (DEFAULT_CONFIG, ESTIMATORS, EstimatorConfig, check_arguments,
                         degree_params)
from .ingest import (
    TokenizerConfig,
    _iter_decoded_lines,
    build_histogram,
    check_resample,
    fingerprint_of,
    read_fingerprint_file,
    resample,
    split_paragraphs,
    tokenize,
)
from .sweep import CSV_COLUMNS, SweepSpec, probe_sample_complexity, run_sweep
from .synth import SAMPLING_MODES, parse_family


def _report_error(name: str, message: str, **extra) -> None:
    """Write the one-line JSON error record to stderr."""
    json.dump({"error": name, "message": message, **extra}, sys.stderr)
    sys.stderr.write("\n")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as the JSON error record, with exit code 2.

    Long flags must be spelled in full, as the README documents: an accepted
    prefix such as ``--inp`` would turn into a usage error the day another
    flag starting with it is added, breaking scripts that relied on it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        _report_error("ArgumentError", message)
        self.exit(2)


def _add_common(parser: argparse.ArgumentParser, run, fmt: str = "json") -> None:
    """Flags every command shares, and its defaults: ``run`` maps ``ns`` to records."""
    parser.add_argument("--seed", type=int, default=0, help="master seed for anything random")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=["csv", "json"],
                        help="output format (default: json for records, csv for tables)")
    parser.add_argument("--config", default=None,
                        help="optional key=value file; keys mirror long flag names")
    parser.set_defaults(run=run, format=fmt, parser=parser)


def _add_estimator_constants(parser: argparse.ArgumentParser, series: bool = True) -> None:
    """The flags of the ``EstimatorConfig`` fields, ``--t``/``--J`` only with ``series``;
    ``_config`` reads them back."""
    parser.add_argument("--c0", type=float, default=DEFAULT_CONFIG.c0)
    parser.add_argument("--c1", type=float, default=DEFAULT_CONFIG.c1)
    parser.add_argument("--degree", type=int, default=None,
                        help="override the polynomial degree L")
    if series:
        parser.add_argument("--t", type=float, default=DEFAULT_CONFIG.t,
                            help="extrapolation ratio for et/gtoulmin")
        parser.add_argument("--J", type=int, default=DEFAULT_CONFIG.J,
                            help="series cutoff for the et estimator")
    else:  # the command runs their defaults
        parser.set_defaults(t=DEFAULT_CONFIG.t, J=DEFAULT_CONFIG.J)


def _config(ns) -> EstimatorConfig:
    return EstimatorConfig(c0=ns.c0, c1=ns.c1, override_L=ns.degree, t=ns.t, J=ns.J)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="supportsize",
        description="Support-size estimation from samples or fingerprints, "
                    "simulation sweeps, and lower-bound diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate support size from a token or fingerprint file")
    _add_common(est, _cmd_estimate)
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="text file of tokens (whitespace separated)")
    src.add_argument("--fingerprint", help="fingerprint file with 'j h_j' lines")
    est.add_argument("--encoding", default="utf-8",
                     help="Python text codec of the --input file (default utf-8); "
                          "an invalid byte is a DecodeError giving its offset")
    est.add_argument("--k", type=float, required=True,
                     help="reciprocal of the smallest possible nonzero mass")
    est.add_argument("--estimator", choices=sorted(ESTIMATORS), default="wy")
    _add_estimator_constants(est)
    est.add_argument("--clamp", action="store_true",
                     help="clamp the estimate into [plug-in count, k]")
    est.add_argument("--round", action="store_true", dest="round_output",
                     help="report the rounded value as the estimate")
    est.add_argument("--no-case-fold", action="store_true",
                     help="keep case; by default text is lowercased with str.lower")
    est.add_argument("--keep-punctuation", action="store_true",
                     help="keep every character; by default a character is kept exactly "
                          "when str.isalnum() or str.isspace() holds, and a token left "
                          "empty is dropped")
    est.add_argument("--resample-fraction", type=float, default=None,
                     help="resample this fraction of units with replacement before estimating")
    est.add_argument("--resample-unit", choices=["word", "paragraph"], default="word")

    sim = sub.add_parser(
        "simulate",
        help="sweep estimators over a synthetic family",
        epilog="CSV columns, in order: " + ", ".join(CSV_COLUMNS),
    )
    _add_common(sim, _cmd_simulate, "csv")
    sim.add_argument("--family", required=True,
                     help="uniform:k=..., zipf:k=...,alpha=..., or mixture:k=...")
    sim.add_argument("--n-grid", default=None, help="comma-separated sample sizes")
    sim.add_argument("--n-min", type=int, default=None)
    sim.add_argument("--n-max", type=int, default=None)
    sim.add_argument("--n-points", type=int, default=10)
    sim.add_argument("--trials", type=int, default=50)
    sim.add_argument("--estimators", default="wy,plugin,gt")
    sim.add_argument("--sampling", choices=SAMPLING_MODES, default="iid")
    _add_estimator_constants(sim)

    prb = sub.add_parser("probe", help="empirical sample complexity at a target accuracy")
    _add_common(prb, _cmd_probe)
    prb.add_argument("--family", required=True)
    prb.add_argument("--estimator", choices=sorted(ESTIMATORS), default="wy")
    prb.add_argument("--epsilon", type=float, required=True)
    prb.add_argument("--delta", type=float, default=0.1)
    prb.add_argument("--trials", type=int, default=50)
    prb.add_argument("--ceiling", type=int, default=None)
    prb.add_argument("--sampling", choices=SAMPLING_MODES, default="iid")
    _add_estimator_constants(prb)

    cfs = sub.add_parser("coeffs", help="dump the weight table (j, a_j, g_j), CSV by default")
    _add_common(cfs, _cmd_coeffs, "csv")
    cfs.add_argument("--k", type=float, required=True)
    cfs.add_argument("--n", type=int, required=True)
    _add_estimator_constants(cfs, series=False)

    thy = sub.add_parser("theory", help="lower-bound laboratory")
    thysub = thy.add_subparsers(dest="action", required=True)

    ap = thysub.add_parser("approx", help="best polynomial approximation of 1/x on [a, b]")
    _add_common(ap, _cmd_theory)
    ap.add_argument("--degree", type=int, required=True)
    ap.add_argument("--a", type=float, required=True)
    ap.add_argument("--b", type=float, required=True)

    pr = thysub.add_parser("priors", help="moment-matched prior pair on {0} U [1+nu, lam]")
    _add_common(pr, _cmd_theory)
    pr.add_argument("--order", type=int, required=True, help="number of matched moments L")
    pr.add_argument("--nu", type=float, default=0.0)
    pr.add_argument("--lam", type=float, required=True)

    tv = thysub.add_parser("tv", help="certified TV between the pair's Poisson mixtures")
    _add_common(tv, _cmd_theory)
    tv.add_argument("--order", type=int, required=True)
    tv.add_argument("--nu", type=float, default=0.0)
    tv.add_argument("--lam", type=float, required=True)
    tv.add_argument("--scale", type=float, required=True, help="Poisson scale (plays n/k)")
    tv.add_argument("--cutoff", type=int, default=None)

    ct = thysub.add_parser("certify", help="numeric sample-complexity lower-bound certificate")
    _add_common(ct, _cmd_theory)
    ct.add_argument("--k", type=float, required=True)
    ct.add_argument("--n", type=float, required=True)
    ct.add_argument("--epsilon", type=float, required=True)
    ct.add_argument("--order", type=int, default=None, help="explicit L (otherwise use the recipe)")
    ct.add_argument("--lam", type=float, default=None)
    ct.add_argument("--nu", type=float, default=None)
    ct.add_argument("--alpha", type=float, default=None)
    ct.add_argument("--c0", type=float, default=1.0, help="recipe degree constant")
    ct.add_argument("--gamma", type=float, default=2.4, help="recipe interval constant")

    mx = thysub.add_parser("maxcheb", help="maximize exp(-beta x) T_L(x) over x >= 1")
    _add_common(mx, _cmd_theory)
    mx.add_argument("--beta", type=float, required=True)
    mx.add_argument("--degree", type=int, required=True)

    return parser


def _config_value(command, action: argparse.Action, value: str, where: str):
    """A config value typed and checked by ``command`` as it types the flag's argument.

    (Its ``_get_values`` would turn the value ``--`` into an empty list.)
    """
    if action.nargs == 0:  # store_true
        lowered = value.lower()
        if lowered in ("true", "yes", "on"):
            return True
        if lowered in ("false", "no", "off"):
            return False
        raise ParameterError(f"{where}: expected true/false/yes/no/on/off, got {value!r}")
    try:
        value = command._get_value(action, value)
        command._check_value(action, value)
    except argparse.ArgumentError as exc:
        raise ParameterError(f"{where}: {exc.message}") from None
    return value


def _apply_config(
    parser: argparse.ArgumentParser, ns: argparse.Namespace, argv
) -> argparse.Namespace:
    """Parse ``argv`` again with the key=value config pairs as defaults.

    The values become defaults of the invoked command's parser, so argparse
    applies one only where its flag was not given: explicit flags always win.
    Keys mirror long flag names (dashes or underscores; the argparse dest,
    such as ``round_output`` for ``--round``, works too); keys that do not
    belong to the invoked command are ignored, letting one file serve several
    subcommands.  Keys of a mutually exclusive group are ignored too: the only
    one, ``--input``/``--fingerprint``, is required, so a flag of it is always
    given.  Values are typed and checked by the command's parser.  Flags
    argparse marks as required must still be given on the command line.
    """
    if not ns.config:
        return ns
    command = ns.parser
    actions = {action.dest: action for action in command._actions}
    actions.update((opt.lstrip("-").replace("-", "_"), action)
                   for opt, action in command._option_string_actions.items())
    exclusive = {a for group in command._mutually_exclusive_groups for a in group._group_actions}
    typed = {}
    # an invalid byte decodes to a lone surrogate, which cannot be encoded back
    with open(ns.config, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{ns.config}:{lineno}"
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParameterError(f"{where}: invalid utf-8 byte") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ParameterError(f"{where}: expected key=value, got {line!r}")
            action = actions.get(key.strip().replace("-", "_"))
            if action is None or action in exclusive or action.default is argparse.SUPPRESS:
                continue
            typed[action.dest] = _config_value(command, action, val.strip(), where)
    command.set_defaults(**typed)
    return parser.parse_args(argv)


def _write_records(records: list[dict], ns) -> None:
    with (contextlib.nullcontext(sys.stdout) if ns.output == "-"
          else open(ns.output, "w", encoding="ascii", newline="")) as out:
        if ns.format == "json":
            for rec in records:
                out.write(json.dumps(rec) + "\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            keys = list(records[0].keys()) if records else []
            writer.writerow(keys)
            for rec in records:
                writer.writerow(["" if rec[c] is None else rec[c] for c in keys])


def _cmd_estimate(ns) -> list[dict]:
    cfg = _config(ns)
    # everything that needs no sample is checked before the input is opened
    check_arguments(ns.estimator, ns.k, cfg)
    if ns.resample_fraction is not None:  # the one use of the seed
        if ns.fingerprint:
            raise ParameterError("--resample-fraction needs --input: "
                                 "a fingerprint has no units to resample")
        check_resample(ns.resample_fraction, ns.seed)
    if ns.fingerprint:
        fp = read_fingerprint_file(ns.fingerprint)
    else:
        tok_cfg = TokenizerConfig(case_fold=not ns.no_case_fold,
                                  strip_punctuation=not ns.keep_punctuation)
        with open(ns.input, "rb") as fh:
            if ns.resample_fraction is None:
                tokens = tokenize(fh, tok_cfg, encoding=ns.encoding)
            elif ns.resample_unit == "word":
                words = list(tokenize(fh, tok_cfg, encoding=ns.encoding))
                tokens = resample(words, ns.resample_fraction, ns.seed)
            else:
                text = "".join(_iter_decoded_lines(fh, ns.encoding))
                paras = [list(tokenize(p, tok_cfg)) for p in split_paragraphs(text)]
                tokens = resample(paras, ns.resample_fraction, ns.seed)
            fp = fingerprint_of(build_histogram(tokens))

    res = ESTIMATORS[ns.estimator](fp, ns.k, cfg)
    value = res.value
    if ns.clamp:
        value = min(max(value, float(fp.distinct)), ns.k)
    if ns.round_output:
        value = float(round(value))
    return [{
        "estimator": ns.estimator,
        "value": value,
        "rounded": round(value),
        "n": fp.n,
        "k": ns.k,
        "L": res.params.get("L"),
        "l": res.params.get("l"),
        "r": res.params.get("r"),
    }]


# Most points of a geometric --n-min/--n-max grid, checked before np.geomspace
# allocates them; each point is one sample size of the sweep.
MAX_GRID_POINTS = 10**6


def _geometric_grid(n_min: int, n_max: int, points: int) -> list[int]:
    # np.geomspace reads its ends as int64, and no sampler takes an n of 2^63
    if not (1 <= n_min < n_max < 2**63 and 2 <= points <= MAX_GRID_POINTS):
        raise ParameterError(
            f"need 1 <= n-min < n-max < 2^63 and 2 <= n-points <= {MAX_GRID_POINTS:.3g}")
    raw = np.geomspace(n_min, n_max, points)
    return sorted({int(round(v)) for v in raw})


def _cmd_simulate(ns) -> list[dict]:
    cfg = _config(ns)
    family = parse_family(ns.family)
    if ns.n_grid:
        try:
            grid = sorted({int(v) for v in ns.n_grid.split(",")})
        except ValueError:
            raise ParameterError(f"--n-grid must list integers: {ns.n_grid!r}") from None
    elif ns.n_min is not None and ns.n_max is not None:
        grid = _geometric_grid(ns.n_min, ns.n_max, ns.n_points)
    else:
        raise ParameterError("give either --n-grid or --n-min/--n-max")
    spec = SweepSpec(
        family=family,
        n_grid=grid,
        trials=ns.trials,
        estimators=tuple(e.strip() for e in ns.estimators.split(",") if e.strip()),
        seed=ns.seed,
        sampling=ns.sampling,
        cfg=cfg,
    )
    return [dataclasses.asdict(r) for r in run_sweep(spec)]


def _cmd_probe(ns) -> list[dict]:
    family = parse_family(ns.family)
    res = probe_sample_complexity(
        family, ns.estimator, ns.epsilon,
        delta=ns.delta, trials=ns.trials, seed=ns.seed,
        ceiling=ns.ceiling, cfg=_config(ns), sampling=ns.sampling,
    )
    rec = dataclasses.asdict(res)
    rec["evaluations"] = rec["evaluations"][-12:]  # keep the record short
    return [rec]


def _cmd_coeffs(ns) -> list[dict]:
    L, l, r = degree_params(ns.k, ns.n, _config(ns))
    a = shifted_coeffs(L, l, r)
    g = g_table(L, l, r, ns.n).g
    return [{"j": j, "a_j": float(a[j]), "g_j": float(g[j])} for j in range(L + 1)]


def _cmd_theory(ns) -> list[dict]:
    if ns.action == "approx":
        res = theory.best_inv_approx(ns.degree, ns.a, ns.b)
        rec = {
            "degree": res.degree, "a": res.a, "b": res.b,
            "error": res.error,
            "closed_form_error": theory.closed_form_error(res.degree + 1, res.a, res.b),
            "coeffs": res.coeffs.tolist(),
            "extrema": res.extrema.tolist(),
        }
    elif ns.action == "priors":
        pair = theory.construct_prior_pair(ns.order, ns.nu, ns.lam)
        rec = {
            "L": pair.L, "nu": pair.nu, "lam": pair.lam, "gap": pair.gap,
            "atoms_u": pair.atoms_u.tolist(), "weights_u": pair.weights_u.tolist(),
            "atoms_u_prime": pair.atoms_v.tolist(), "weights_u_prime": pair.weights_v.tolist(),
        }
    elif ns.action == "tv":
        pair = theory.construct_prior_pair(ns.order, ns.nu, ns.lam)
        est = theory.tv_exact(pair, ns.scale, ns.cutoff)
        bound = theory.tv_bound(ns.scale * ns.lam, ns.order)
        rec = {
            "L": ns.order, "nu": ns.nu, "lam": ns.lam, "scale": ns.scale,
            "tv_lower": est.lower, "tv_upper": est.upper,
            "tail_bound": est.tail_bound, "cutoff": est.cutoff,
            "bound_full": bound.full, "bound_simplified": bound.simplified,
            "bound": bound.value,
        }
    elif ns.action == "certify":
        if ns.order is None:
            params = theory.lecam_recipe(ns.k, ns.epsilon, c0=ns.c0, gamma=ns.gamma)
        else:
            if None in (ns.lam, ns.nu, ns.alpha):
                raise ParameterError("--order requires --lam, --nu and --alpha")
            params = {"L": ns.order, "lam": ns.lam, "nu": ns.nu, "alpha": ns.alpha}
        cert = theory.lecam_certificate(
            ns.k, ns.n, ns.epsilon,
            L=params["L"], lam=params["lam"], nu=params["nu"], alpha=params["alpha"],
        )
        # asdict keeps terms a tuple; a list writes the CSV cell as [a, b, c]
        rec = {"k": ns.k, "n": ns.n, "epsilon": ns.epsilon, **params,
               **dataclasses.asdict(cert), "terms": list(cert.terms)}
    else:  # maxcheb
        res = theory.max_exp_cheby(ns.beta, ns.degree)
        rec = {"beta": ns.beta, "L": ns.degree, **dataclasses.asdict(res)}
    return [rec]


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        ns = _apply_config(parser, ns, argv)
        _write_records(ns.run(ns), ns)
        return 0
    except SupportSizeError as exc:
        _report_error(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _report_error(type(exc).__name__, str(exc), path=getattr(exc, "filename", None))
        return 3


if __name__ == "__main__":
    sys.exit(main())
