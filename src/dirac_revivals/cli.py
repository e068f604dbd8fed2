"""Command-line surface emitting the reproduction datasets.

Subcommands: spectral, survival, timescales, density, observables,
validate.  Flags override a flat `key = value` config file; outputs are
deterministic (identical config -> byte-identical files).  Exit codes:
0 ok, 1 validation failure, 2 I/O error, 3 bad configuration.

The validation tolerance can be overridden with DIRAC_REVIVALS_TOL.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dataio
from .catstate import (A_MAX, CatSpec, LevelFit, _oracle_expansion, expand, gaussian_fit,
                       oracle_raw_overlaps, spectral_function)
from .density import density_grid
from .evolution import (_uniform_grid, autocorrelation_series, kz_for_ab_ratio,
                        survival_series, time_scales)
from .landau import PhysicalParams
from .observables import (_CORRELATION_GENERATORS, GeneratorId, _concurrence_sq_formula,
                          _mutual_information_formula, expectation_values, matrix_elements)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CONFIG = 3

_CONFIG_KEYS = {
    "mass": float, "kz": float, "eB": float, "a": float, "symmetry": str,
    "ab_ratio": float, "tail_eps": float, "tmin": float, "tmax": float,
    "samples": int, "smin": float, "smax": float, "ns": int, "nt": int,
    "out": str, "format": str,
}


class ConfigError(Exception):
    pass


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-revivals",
        description="Dirac cat states in relativistic Landau levels: datasets for "
                    "spectra, survival probability, densities and spin-parity observables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key = value config file (flags win)")
        sp.add_argument("--mass", type=float, default=None, help="fermion mass M")
        sp.add_argument("--kz", type=float, default=None, help="longitudinal momentum")
        sp.add_argument("--eB", type=float, default=None, help="magnetic coupling (positive)")
        sp.add_argument("--a", type=float, default=None,
                        help=f"cat distance parameter, 0 <= a <= {A_MAX:g}")
        sp.add_argument("--symmetry", choices=("S", "A"), default=None)
        sp.add_argument("--ab-ratio", dest="ab_ratio", type=float, default=None,
                        help="solve kz from A/B at the fitted mean level (conflicts with --kz)")
        sp.add_argument("--tail-eps", dest="tail_eps", type=float, default=None,
                        help="discarded-probability bound of the truncation, total over both tails")
        sp.add_argument("--out", default=None, help="output path ('-' for stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)

    sp = sub.add_parser("spectral", help="spectral lines (energy, weight)")
    add_common(sp)

    sp = sub.add_parser("survival", help="|C(t)| series")
    add_common(sp)
    sp.add_argument("--tmin", type=float, default=None)
    sp.add_argument("--tmax", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--complex", action="store_true", dest="complex_out",
                    help="emit re/im/abs columns of C(t)")

    sp = sub.add_parser("timescales", help="fit report and T1/T2/T3")
    add_common(sp)

    sp = sub.add_parser("density", help="probability density on an (s,t) grid")
    add_common(sp)
    sp.add_argument("--tmin", type=float, default=None)
    sp.add_argument("--tmax", type=float, default=None)
    sp.add_argument("--nt", type=int, default=None)
    sp.add_argument("--smin", type=float, default=None)
    sp.add_argument("--smax", type=float, default=None)
    sp.add_argument("--ns", type=int, default=None)

    sp = sub.add_parser("observables", help="generator series + concurrence^2 + mutual information")
    add_common(sp)
    sp.add_argument("--tmin", type=float, default=None)
    sp.add_argument("--tmax", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)

    sp = sub.add_parser("validate", help="run the internal consistency suite")
    add_common(sp)
    return parser


_DEFAULTS = {
    "mass": 0.0, "kz": None, "eB": 1.0, "a": 5.0, "symmetry": "S",
    "ab_ratio": None, "tail_eps": 1e-12, "samples": 2000, "nt": 301,
    "out": "-", "format": "csv",
}


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags; validate combinations."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key, kind in _CONFIG_KEYS.items():
        if kind is float and cfg.get(key) is not None and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    if cfg.get("eB") is None or cfg["eB"] <= 0.0:
        raise ConfigError(f"eB must be positive, got {cfg.get('eB')}")
    if cfg.get("a") is None or cfg["a"] < 0.0:
        raise ConfigError("distance parameter a must be >= 0")
    if cfg.get("kz") is not None and cfg.get("ab_ratio") is not None:
        raise ConfigError("exactly one of kz and ab_ratio may be given")
    if cfg.get("symmetry") not in ("S", "A"):
        raise ConfigError(f"symmetry must be S or A, got {cfg.get('symmetry')}")
    if not (0.0 < cfg["tail_eps"] <= 1e-6):
        raise ConfigError("tail_eps must lie in (0, 1e-6]")
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
    spec, info, _ = _spec_and_fit(cfg)
    return spec, info


def _spec_and_fit(cfg: dict) -> tuple[CatSpec, dict, LevelFit | None]:
    """make_spec, plus the fit the ab_ratio solve ended on (None without ab_ratio)."""
    def spec_at(kz: float) -> CatSpec:
        return CatSpec(cfg["symmetry"], cfg["a"],
                       PhysicalParams(M=cfg["mass"], kz=kz, eB=cfg["eB"]))

    if cfg.get("ab_ratio") is None:
        kz = cfg.get("kz")
        return spec_at(kz if kz is not None else 0.0), {}, None

    def solve(fit: LevelFit) -> float:
        return kz_for_ab_ratio(cfg["ab_ratio"], fit.n0, cfg["eB"])

    fit = gaussian_fit(expand(spec_at(0.0), cfg["tail_eps"]))
    kz, fits, converged = solve(fit), 1, False
    while not converged and fits < _KZ_MAX_FITS:
        try:
            new = gaussian_fit(expand(spec_at(kz), cfg["tail_eps"]))
        except ValueError:
            break
        fits += 1
        converged = abs(new.n0 - fit.n0) <= _KZ_RTOL * new.n0
        fit, kz = new, solve(new)
    info = {"solved_kz": kz, "kz_fits": fits, "kz_converged": converged}
    return spec_at(kz), info, fit


def cmd_spectral(cfg: dict) -> int:
    spec, _ = make_spec(cfg)
    exp = expand(spec, cfg["tail_eps"])
    dataio.write_spectral_csv(cfg["out"], spectral_function(exp))
    return EXIT_OK


def _window(cfg: dict, spec: CatSpec, exp, fit: LevelFit | None, multiple: float,
            which: str) -> tuple[float, float]:
    """(tmin, tmax) from the config; tmax defaults to multiple * the period `which`."""
    tmin = cfg.get("tmin", 0.0) or 0.0
    tmax = cfg.get("tmax")
    if tmax is None:
        # only fit when the user leaves the window to us; under ab_ratio the
        # solved fit gives the periods, the same n0 that timescales reports
        if fit is None:
            fit = gaussian_fit(exp)
        tmax = multiple * getattr(time_scales(fit.n0, spec.params), which)
    return tmin, tmax


def cmd_survival(cfg: dict) -> int:
    spec, _, fit = _spec_and_fit(cfg)
    exp = expand(spec, cfg["tail_eps"])
    tmin, tmax = _window(cfg, spec, exp, fit, 2.0, "T1")
    if cfg.get("complex_out"):
        series = autocorrelation_series(exp, tmin, tmax, cfg["samples"])
    else:
        series = survival_series(exp, tmin, tmax, cfg["samples"])
    dataio.write_series_csv(cfg["out"], series, "abs_C")
    return EXIT_OK


def cmd_timescales(cfg: dict) -> int:
    spec, info, fit = _spec_and_fit(cfg)
    if fit is None:
        fit = gaussian_fit(expand(spec, cfg["tail_eps"]))
    scales = time_scales(fit.n0, spec.params)
    p = spec.params
    report = {
        "n0": fit.n0,
        "delta_n": fit.delta_n,
        "residual": fit.residual,
        "T1": scales.T1,
        "T2": scales.T2,
        "T3": scales.T3,
        "params": {"mass": p.M, "kz": p.kz, "eB": p.eB, "a": spec.a,
                   "symmetry": spec.symmetry, **info},
    }
    dataio.write_timescales_json(cfg["out"], report)
    return EXIT_OK


def cmd_density(cfg: dict) -> int:
    spec, _, fit = _spec_and_fit(cfg)
    exp = expand(spec, cfg["tail_eps"])
    smin = cfg.get("smin")
    smax = cfg.get("smax")
    if smin is None:
        smin = -(spec.a + 6.0)
    if smax is None:
        smax = spec.a + 6.0
    # sample the band limit sqrt(2*n_max + 1) of the truncated expansion at
    # Nyquist, so the cat's interference fringes do not alias
    band = math.sqrt(2 * exp.n_max + 1)
    ns = cfg.get("ns")
    if ns is None:
        ns = max(801, math.ceil((smax - smin) * band / math.pi) + 1)
    tmin, tmax = _window(cfg, spec, exp, fit, 3.0, "T1")
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
    spec, _, fit = _spec_and_fit(cfg)
    exp = expand(spec, cfg["tail_eps"])
    tmin, tmax = _window(cfg, spec, exp, fit, 1.0, "T2")
    ts, _ = _uniform_grid(tmin, tmax, cfg["samples"])
    rows = expectation_values(exp, _EXPORTED_GENERATORS, ts)
    if not np.isfinite(rows).all():  # 2 E t overflows for bounds like --tmax 1e308
        raise ValueError("series values must be finite")
    columns = {g.value: row for g, row in zip(_EXPORTED_GENERATORS, rows)}
    # the correlation quantifiers' inputs are all exported columns
    g0, sz, g5gz, igz, az = (columns[g.value] for g in _CORRELATION_GENERATORS)
    columns["concurrence_sq"] = _concurrence_sq_formula(g0, sz)
    columns["mutual_information"] = _mutual_information_formula(g0, sz, g5gz, igz, az)
    dataio.write_columns_csv(cfg["out"], ts, columns)
    return EXIT_OK


def cmd_validate(cfg: dict) -> int:
    """Oracle suite: coefficient equivalence, selection rules, normalization."""
    tol_env = os.environ.get("DIRAC_REVIVALS_TOL")
    tol = 1e-8
    if tol_env is not None:
        try:
            tol = float(tol_env)
        except ValueError as exc:
            raise ConfigError(f"DIRAC_REVIVALS_TOL is not a number: {tol_env!r}") from exc
        if not (tol > 0.0) or not math.isfinite(tol):
            raise ConfigError(f"DIRAC_REVIVALS_TOL must be a positive number, got {tol_env!r}")

    spec, _ = make_spec(cfg)
    exp = expand(spec, cfg["tail_eps"])
    checks: list[tuple[str, float, float, bool]] = []

    def record(name: str, value: float, bound: float) -> None:
        value = float(value)
        checks.append((name, value, bound, value <= bound))

    # analytic expansion against the quadrature oracle, coefficient by
    # coefficient; oracle row n - 1 holds level n.  The raw overlaps of
    # this one quadrature also feed the parity check below
    levels, raw = oracle_raw_overlaps(spec, exp.n_max + 2)
    oracle = _oracle_expansion(spec, levels, raw)
    rows = exp.levels - 1
    dev = max(np.abs(exp.c_r1_plus - oracle.c_r1_plus[rows]).max(),
              np.abs(exp.c_r2_plus - oracle.c_r2_plus[rows]).max(),
              np.abs(exp.c_r2_minus - oracle.c_r2_minus[rows]).max())
    record("coefficient_oracle_equivalence", dev, tol)

    # wrong-parity rows and the (r=1,nu=-) column must vanish
    parity = 0 if spec.symmetry == "S" else 1
    leak = max(np.abs(raw[(levels - 1) % 2 != parity]).max(initial=0.0),
               np.abs(raw[:, 1]).max())
    record("parity_selection_leak", leak, max(tol, 1e-10))

    # unit total weight and unit survival at t = 0
    record("normalization_defect", abs(exp.total_weight - 1.0), max(tol, 1e-12))

    # constraint identity on the populated levels
    resid = exp.eta * (exp.A * exp.A + exp.B * exp.B + 1.0) - 1.0
    record("constraint_identity", np.abs(resid).max(), max(tol, 1e-12))

    # block-diagonal selection rule: every n != m pair of levels 1..7, all labels
    levels = np.arange(1, 8)
    cross = levels[:, None] != levels[None, :]
    sel = max(np.abs(matrix_elements(g, levels, spec.params)).max(axis=(1, 3))[cross].max()
              for g in (GeneratorId.GAMMA0, GeneratorId.GAMMA5_ALPHA_Z))
    record("selection_rule_leak", sel, max(tol, 1e-10))

    width = max(len(name) for name, *_ in checks)
    ok_all = True
    for name, value, bound, ok in checks:
        ok_all &= ok
        print(f"{name:<{width}}  {value:.3e} <= {bound:.3e}  {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok_all else EXIT_VALIDATION


_COMMANDS = {
    "spectral": cmd_spectral,
    "survival": cmd_survival,
    "timescales": cmd_timescales,
    "density": cmd_density,
    "observables": cmd_observables,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if getattr(args, "complex_out", False):
            cfg["complex_out"] = True
        code = _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
