"""Command-line surface emitting the reproduction datasets.

Subcommands: spectral, survival, timescales, density, observables,
validate.  Every setting is one row of `_OPTIONS`: its type or choices, its
default, the subcommands whose flags set it and its help.  Flags override a
flat `key = value` config file, which overrides the defaults; outputs are
deterministic (identical config -> byte-identical files).  Every subcommand
runs one path: `_prepare` (spec, expansion, fit, time window), its kernel,
its writer.  Exit codes: 0 ok, 1 validation failure, 2 I/O error, 3 bad
configuration (a grid too large to allocate included).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# before numpy's first import, so OpenBLAS starts no worker thread (~0.1 s of CPU
# a process, no gain at a <= 20); a user's value wins, the library sets nothing
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import dataio
from .catstate import (A_MAX, CatSpec, LevelFit, _expand_ladder, _parity_weights, gaussian_fit,
                       spectral_function)
from .density import density_grid
from .evolution import (_axis, _uniform_grid, autocorrelation_series, kz_for_ab_ratio,
                        survival_series, time_scales)
from .landau import PhysicalParams
from .observables import _CORRELATION_GENERATORS, GeneratorId, _correlations, _grid_values

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CONFIG = 3

_ALL = ("spectral", "survival", "timescales", "density", "observables", "validate")
# the windowed commands and their default tmax: a multiple of one fitted period
_DEFAULT_TMAX = {"survival": (2.0, "T1"), "density": (3.0, "T1"), "observables": (1.0, "T2")}
_WINDOWED = tuple(_DEFAULT_TMAX)

# Every setting, one row each: (key, type or tuple of choices, default, the
# subcommands whose flag sets it, help).  The parser, the config file and the
# defaults all derive from this table; a config file may set any key.  A bool
# row is a bare flag, and `true`/`false` in a config file.
_OPTIONS = (
    ("mass", float, 0.0, _ALL, "fermion mass M"),
    ("kz", float, None, _ALL, "longitudinal momentum"),
    ("eB", float, 1.0, _ALL, "magnetic coupling, positive"),
    ("a", float, 5.0, _ALL, f"cat distance parameter, 0 <= a <= {A_MAX:g}"),
    ("symmetry", ("S", "A"), "S", _ALL, "symmetric or antisymmetric cat"),
    ("ab_ratio", float, None, _ALL,
     "solve kz from A/B at the fitted mean level (conflicts with --kz)"),
    ("tail_eps", float, 1e-12, _ALL,
     "discarded-probability bound of the truncation, total over both tails"),
    ("tmin", float, 0.0, _WINDOWED, "start of the time window"),
    ("tmax", float, None, _WINDOWED,
     "end of the time window (default: survival 2 T1, density 3 T1, observables T2)"),
    ("samples", int, 2000, ("survival", "observables"), "time samples"),
    ("complex", bool, False, ("survival",), "emit re/im/abs columns of C(t)"),
    ("smin", float, None, ("density",), "lower s bound (default -(a + 6))"),
    ("smax", float, None, ("density",), "upper s bound (default a + 6)"),
    ("ns", int, None, ("density",), "s samples (default: Nyquist for the kept levels)"),
    ("nt", int, 301, ("density",), "time samples"),
    ("out", str, "-", _ALL, "output path, '-' for stdout"),
    ("format", ("csv", "json"), "csv", ("density",), "output format"),
    ("tol", float, 1e-8, ("validate",), "tolerance of the validation checks, positive"),
)


class ConfigError(Exception):
    pass


def _typed(kind, text: str):
    """text as a value of a row's kind: a type (bool reads true/false), or a tuple of choices."""
    choices = ("false", "true") if kind is bool else kind
    if not isinstance(choices, tuple):
        return kind(text)
    if text not in choices:
        raise ValueError(f"not one of {choices}")
    return text == "true" if kind is bool else text


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    kinds = {key: kind for key, kind, *_ in _OPTIONS}
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in kinds:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _typed(kinds[key], val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-revivals",
        description="Dirac cat states in relativistic Landau levels: datasets for "
                    "spectra, survival probability, densities and spin-parity observables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        sp = sub.add_parser(command, help=run.__doc__)
        sp.add_argument("--config", help="flat key = value config file (flags win)")
        for key, kind, default, commands, text in _OPTIONS:
            if command in commands:
                # no argparse default: a flag left out must not override the file
                typed = ({"action": "store_true", "default": None} if kind is bool else
                         {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
                sp.add_argument("--" + key.replace("_", "-"), **typed,
                                help=text if default is None else f"{text} (default {default})")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags; check what only the CLI knows.

    The library refuses the rest (eB, a, symmetry, tail_eps) with a ValueError.
    """
    cfg = {key: default for key, _, default, *_ in _OPTIONS}
    if args.config:
        cfg.update(read_config_file(args.config))
    cfg.update((key, val) for key, val in vars(args).items()
               if val is not None and key not in ("command", "config"))
    for key, kind, *_ in _OPTIONS:
        value = cfg[key]
        if kind is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if kind is int and value is not None and value < 2:
            raise ConfigError(f"{key} = {value}: need at least 2 samples")
    if cfg["kz"] is not None and cfg["ab_ratio"] is not None:
        raise ConfigError("exactly one of kz and ab_ratio may be given")
    if not cfg["tol"] > 0.0:
        raise ConfigError(f"tol must be positive, got {cfg['tol']}")
    return cfg


# each refit at the solved kz shrinks the change in n0 about a thousandfold
# (a = 5, M = 1: 5.5e-3, 4.1e-6, 3.0e-9), so 1e-8 takes three or four fits
_KZ_RTOL = 1e-8
_KZ_MAX_FITS = 8


def make_spec(cfg: dict) -> tuple[CatSpec, dict]:
    """Physical parameters from the config; solves kz from ab_ratio if asked.

    With ab_ratio R, kz and the fitted mean level n0 are found together, at
    the fixed point kz = R*sqrt(2*n0*eB) with n0 = gaussian_fit at that kz
    (the fitted weights carry eta_n, which depends on kz once M > 0).  The
    first fit is at kz = 0; each later fit is at the kz solved from the
    previous n0.  The loop stops when two successive n0 agree to within
    _KZ_RTOL = 1e-8 relative.  After _KZ_MAX_FITS = 8 fits, or when a fit
    after the first one fails, it stops early and returns the last iterate
    without raising.  The returned kz is solved from the last fit's n0, so A/B = R holds at that
    n0 to rounding, and refitting at that kz moves n0 by about _KZ_RTOL at
    most.

    info is JSON-serialisable: `solved_kz`, `kz_fits` (fits made) and
    `kz_converged` (False when the loop stopped without agreement).
    """
    spec, info, *_ = _solve(cfg)
    return spec, info


def _solve(cfg: dict) -> tuple[CatSpec, dict, LevelFit | None, tuple]:
    """make_spec, plus the ab_ratio solve's last fit (None without) and the level ladder."""
    def spec_at(kz: float) -> CatSpec:
        return CatSpec(cfg["symmetry"], cfg["a"],
                       PhysicalParams(M=cfg["mass"], kz=kz, eB=cfg["eB"]))

    kz = cfg.get("kz")
    spec = spec_at(kz if kz is not None else 0.0)  # the spec's checks refuse a > A_MAX first
    ladder = _parity_weights(spec.symmetry, spec.a, cfg["tail_eps"])  # the same at every kz
    if cfg.get("ab_ratio") is None:
        return spec, {}, None, ladder

    def solve(fit: LevelFit) -> float:
        return kz_for_ab_ratio(cfg["ab_ratio"], fit.n0, cfg["eB"])

    fit = gaussian_fit(_expand_ladder(spec_at(0.0), ladder))
    kz, fits, converged = solve(fit), 1, False
    while not converged and fits < _KZ_MAX_FITS:
        # a kz outside the domain is refused here; only a failed fit ends the loop
        exp = _expand_ladder(spec_at(kz), ladder)
        try:
            new = gaussian_fit(exp)
        except ValueError:
            break
        fits += 1
        converged = abs(new.n0 - fit.n0) <= _KZ_RTOL * new.n0
        fit, kz = new, solve(new)
    info = {"solved_kz": kz, "kz_fits": fits, "kz_converged": converged}
    return spec_at(kz), info, fit, ladder


def _prepare(cfg: dict, command: str):
    """(spec, exp, window, fit, info): the setup every command runs before its kernel.

    exp is built on _solve's level ladder, and fit is its kz solve's last fit.
    Without ab_ratio a fit is made only where a period is read: by timescales,
    and for a default tmax, which window = (tmin, tmax) then holds.  timescales
    reads only the fit, so it builds no expansion after a solve.
    """
    spec, info, fit, ladder = _solve(cfg)
    fit_only = fit is not None and command == "timescales"
    exp = None if fit_only else _expand_ladder(spec, ladder)
    default, tmax = _DEFAULT_TMAX.get(command), cfg["tmax"]
    if fit is None and (command == "timescales" or default and tmax is None):
        fit = gaussian_fit(exp)
    if default and tmax is None:
        multiple, period = default
        tmax = multiple * getattr(time_scales(fit.n0, spec.params), period)
    return spec, exp, (cfg["tmin"], tmax), fit, info


def cmd_spectral(cfg: dict) -> int:
    """Spectral lines (energy, weight)."""
    _, exp, *_ = _prepare(cfg, "spectral")
    dataio.write_spectral_csv(cfg["out"], spectral_function(exp))
    return EXIT_OK


def cmd_survival(cfg: dict) -> int:
    """The |C(t)| series."""
    _, exp, (tmin, tmax), *_ = _prepare(cfg, "survival")
    kernel = autocorrelation_series if cfg["complex"] else survival_series
    dataio.write_series_csv(cfg["out"], kernel(exp, tmin, tmax, cfg["samples"]), "abs_C")
    return EXIT_OK


def cmd_timescales(cfg: dict) -> int:
    """Fit report and the periods T1/T2/T3."""
    spec, _, _, fit, info = _prepare(cfg, "timescales")
    scales = time_scales(fit.n0, spec.params)
    p = spec.params
    report = {"n0": fit.n0, "delta_n": fit.delta_n, "residual": fit.residual,
              "T1": scales.T1, "T2": scales.T2, "T3": scales.T3,
              "params": {"mass": p.M, "kz": p.kz, "eB": p.eB, "a": spec.a,
                         "symmetry": spec.symmetry, **info}}
    dataio.write_timescales_json(cfg["out"], report)
    return EXIT_OK


def cmd_density(cfg: dict) -> int:
    """Probability density on an (s,t) grid."""
    spec, exp, (tmin, tmax), *_ = _prepare(cfg, "density")
    smin = -(spec.a + 6.0) if cfg["smin"] is None else cfg["smin"]
    smax = spec.a + 6.0 if cfg["smax"] is None else cfg["smax"]
    # sample the band limit sqrt(2*n_max + 1) of the truncated expansion at
    # Nyquist, so the cat's interference fringes do not alias
    band = math.sqrt(2 * exp.n_max + 1)
    ns = cfg["ns"]
    if ns is None:
        _uniform_grid(smin, smax, 2)  # refuses a span the rule below cannot count
        ns = max(801, math.ceil((smax - smin) * band / math.pi) + 1)
    grid = density_grid(exp, smin, smax, ns, tmin, tmax, cfg["nt"])
    writer = dataio.write_grid_json if cfg["format"] == "json" else dataio.write_grid_csv
    writer(cfg["out"], grid)
    return EXIT_OK


_EXPORTED_GENERATORS = (
    GeneratorId.GAMMA0,
    GeneratorId.GAMMA5_ALPHA_Z,
    GeneratorId.GAMMA5_GAMMA_Z,
    GeneratorId.I_GAMMA_Z,
    GeneratorId.I_GAMMA0_GAMMA5,
    GeneratorId.ALPHA_Z,
)


def cmd_observables(cfg: dict) -> int:
    """Generator series, concurrence^2 and mutual information."""
    _, exp, (tmin, tmax), *_ = _prepare(cfg, "observables")
    rows, dt = _grid_values(exp, _EXPORTED_GENERATORS, tmin, tmax, cfg["samples"])
    columns = {g.value: row for g, row in zip(_EXPORTED_GENERATORS, rows)}
    # the correlation quantifiers' inputs are all exported columns
    columns.update(_correlations(*(columns[g.value] for g in _CORRELATION_GENERATORS)))
    dataio.write_columns_csv(cfg["out"], _axis(tmin, dt, cfg["samples"]), columns)
    return EXIT_OK


def cmd_validate(cfg: dict) -> int:
    """Internal consistency suite: oracle coefficients, selection rules, normalization."""
    from .oracle import check_table  # the one command that loads the oracle

    spec, exp, *_ = _prepare(cfg, "validate")
    checks = [(name, value, bound, value <= bound)
              for name, value, bound in check_table(spec, exp, cfg["tol"])]
    width = max(len(name) for name, *_ in checks)
    with dataio._text_out(cfg["out"]) as fh:
        fh.writelines(f"{name:<{width}}  {value:.3e} <= {bound:.3e}  {'PASS' if ok else 'FAIL'}\n"
                      for name, value, bound, ok in checks)
    return EXIT_OK if all(ok for *_, ok in checks) else EXIT_VALIDATION


_COMMANDS = {
    "spectral": cmd_spectral,
    "survival": cmd_survival,
    "timescales": cmd_timescales,
    "density": cmd_density,
    "observables": cmd_observables,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](resolve_config(args))
    except (ConfigError, ValueError, MemoryError) as exc:  # numpy's message names the allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
