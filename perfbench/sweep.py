"""One pass of the `sweep` workload: many fresh expansions with short time axes.

    python3 perfbench/sweep.py RESULT.json --seed N --configs K [--trace SPANS.json]

Draws K seeded configurations (symmetry S/A, a uniform on [0.5, 24]
stratified into K equal bins, M in {0, 1, 5}, A/B uniform on [0.5, 3]) and
runs them through the library in this one process, with no file output.
Every pass of a run is a fresh process on the same draw, so no cache
carries over from one pass to the next and the peak RSS is that of one
pass.  With --trace the package is traced and the spans are written to
SPANS.json.  The range of a reaches two known domain edges on purpose:
`gaussian_fit` refuses a below ~0.66 (S) / ~0.75 (A) ("need at least 5
levels") and the quadrature observable engine drifts from the closed forms
past a ~ 23.5.  Such configurations are timed, counted as failed by kind,
and the pass goes on.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time

import numpy as np

# the workload calls through the package namespace, which a tracer rebinds;
# the checks use the closed forms bound here, so they never record spans
import dirac_revivals as dr
import dirac_revivals.cli
from dirac_revivals.observables import GeneratorId, closed_form_series

A_RANGE = (0.5, 24.0)
MASSES = (0.0, 1.0, 5.0)
AB_RANGE = (0.5, 3.0)
SURVIVAL_SAMPLES = 4001
SERIES_SAMPLES = 1000
ENGINE_TOL = 1e-8      # engine == closed form (acceptance C8)
SURVIVAL_TOL = 1e-12   # |C(0)| = 1 and |C| <= 1
FIT_EDGE = "need at least 5 levels"
CORRELATION_GENERATORS = (GeneratorId.GAMMA0, GeneratorId.GAMMA5_ALPHA_Z,
                          GeneratorId.GAMMA5_GAMMA_Z, GeneratorId.I_GAMMA_Z, GeneratorId.ALPHA_Z)


def draw_configs(seed: int, k: int) -> list[dict]:
    """K configurations; a is stratified so every draw spans the whole range."""
    rng = random.Random(seed)
    lo, hi = A_RANGE
    width = (hi - lo) / k
    configs = [{"symmetry": rng.choice("SA"), "a": lo + (i + rng.random()) * width,
                "mass": rng.choice(MASSES), "ab_ratio": rng.uniform(*AB_RANGE)}
               for i in range(k)]
    rng.shuffle(configs)
    return configs


def run_config(config: dict):
    """One configuration through the library, as a user script would call it."""
    cfg = {"symmetry": config["symmetry"], "a": config["a"], "mass": config["mass"],
           "eB": 1.0, "kz": None, "ab_ratio": config["ab_ratio"], "tail_eps": 1e-12}
    spec, _ = dr.cli.make_spec(cfg)
    exp = dr.expand(spec, cfg["tail_eps"])
    fit = dr.gaussian_fit(exp)
    sc = dr.time_scales(fit.n0, spec.params)
    survival = dr.survival_series(exp, 0.0, 2.5 * sc.T1, SURVIVAL_SAMPLES)
    peaks = dr.find_peaks(survival, 0.2, 0.5 * sc.T1)
    corr = dr.correlation_series(exp, 0.0, sc.T2, SERIES_SAMPLES)
    gamma0 = dr.expectation_series(exp, GeneratorId.GAMMA0, 0.0, sc.T2, SERIES_SAMPLES)
    return {"spec": spec, "exp": exp, "n0": fit.n0, "survival": survival, "peaks": peaks,
            "corr": corr, "gamma0": gamma0.series}


def check_config(config: dict, out) -> tuple[str | None, dict]:
    """(failure kind or None, diagnostics) for one configuration's outputs."""
    if isinstance(out, Exception):
        return ("fit_edge" if FIT_EDGE in str(out) else "error"), {"error": repr(out)}
    diag = {}
    if config["mass"] > 0.0:
        p = out["spec"].params
        achieved = p.kz / math.sqrt(2.0 * out["n0"] * p.eB)
        diag["ab_rel_err"] = abs(achieved / config["ab_ratio"] - 1.0)
    mag = out["survival"].values
    if abs(mag[0] - 1.0) > SURVIVAL_TOL or mag.max() > 1.0 + SURVIVAL_TOL:
        return "survival", dict(diag, c0=float(mag[0]), max=float(mag.max()))
    exp, series = out["exp"], out["gamma0"]
    ts = series.times
    g0, sz, g5gz, igz, az = (closed_form_series(exp, g, ts) for g in CORRELATION_GENERATORS)
    conc = 0.5 * (1.0 + g0) * (1.0 - sz)
    mi = 2.0 - 0.5 * ((1.0 + g0) ** 2 + (1.0 + g5gz) ** 2 + (sz - 1.0) ** 2 - igz ** 2 - 4.0 * az ** 2)
    diag["engine_dev"] = max(float(np.abs(series.values - g0).max()),
                             float(np.abs(out["corr"]["concurrence_sq"].values - conc).max()),
                             float(np.abs(out["corr"]["mutual_information"].values - mi).max()))
    if not diag["engine_dev"] <= ENGINE_TOL:
        return "engine_drift", diag
    return None, diag


def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(configs: list[dict]) -> tuple[list, list, list]:
    """Per-configuration wall and CPU times and check verdicts.

    Each configuration is checked right after it ran, outside its timing,
    and its outputs are dropped, so peak memory is that of one configuration.
    """
    walls, cpus, verdicts = [], [], []
    for config in configs:
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            out = run_config(config)
        except (ValueError, ArithmeticError) as exc:
            out = exc
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_now() - c0)
        verdicts.append(check_config(config, out))
    return walls, cpus, verdicts


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--configs", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS", default=None, help="trace the pass, spans to SPANS")
    args = ap.parse_args(argv)

    configs = draw_configs(args.seed, args.configs)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        walls, cpus, checked = run_pass(configs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": sum(walls), "cpu_s": sum(cpus),
              "configs": [dict(c, wall_s=w, failure=kind, **diag)
                          for c, w, (kind, diag) in zip(configs, walls, checked)]}
    if tracer is not None:
        result["summary"] = tracer.summary()
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
