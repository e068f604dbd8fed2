"""Output checks for the benchmark's CLI commands.

    python3 perfbench/check.py MANIFEST.json

MANIFEST lists the commands of one pass: label, argv, exit code, output
path and stdout path.  Each output is checked against the package's own
independent routes at the tolerances of its test suite, and the verdicts
are printed as one JSON object keyed by label:
{"ok": bool, "problems": [...], "diag": {...}}.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from dirac_revivals import cli
from dirac_revivals.catstate import expand, gaussian_fit
from dirac_revivals.density import SpatialGrid2D, density_closed_form
from dirac_revivals.evolution import time_scales
from dirac_revivals.landau import PhysicalParams
from dirac_revivals.observables import GeneratorId, closed_form_series

ROW_INTEGRAL_TOL = 1e-6     # density rows integrate to 1
DENSITY_TOL = 1e-10         # direct density == closed double sum
SURVIVAL_TOL = 1e-12        # |C(0)| = 1, |C| <= 1, direct per-level sum
ENGINE_TOL = 1e-8           # observable engine == closed form
FORMULA_TOL = 1e-12         # concurrence^2 / mutual information from the columns
SAMPLED = 9                 # rows or times compared against a second route


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "# schema=1":
        raise ValueError(f"{path}: missing schema line")
    header = lines[1].split(",")
    data = np.array(",".join(lines[2:]).split(","), dtype=float)
    return header, data.reshape(len(lines) - 2, len(header))


def sample_indices(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, SAMPLED).round().astype(int))


def expansion(argv: list[str]):
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    spec, info = cli.make_spec(cfg)
    return cfg, spec, expand(spec, cfg["tail_eps"])


def ab_rel_err(cfg: dict, spec) -> dict:
    """A/B achieved at the n0 refitted at the solved kz, against the request."""
    if cfg.get("ab_ratio") is None:
        return {}
    n0 = gaussian_fit(expand(spec, cfg["tail_eps"])).n0
    achieved = spec.params.kz / math.sqrt(2.0 * n0 * spec.params.eB)
    return {"ab_rel_err": abs(achieved / cfg["ab_ratio"] - 1.0)}


def check_spectral(cmd, problems):
    header, rows = read_csv(cmd["out"])
    if header != ["energy", "weight"]:
        problems.append(f"header {header}")
    if rows[:, 1].min() < 0.0:
        problems.append("negative weight")
    if abs(rows[:, 1].sum() - 1.0) > SURVIVAL_TOL:
        problems.append(f"weights sum to {rows[:, 1].sum()!r}")
    if not np.all(np.diff(rows[:, 0]) > 0.0):
        problems.append("energies not strictly increasing")
    return {}


def check_survival(cmd, problems):
    cfg, spec, exp = expansion(cmd["argv"])
    header, rows = read_csv(cmd["out"])
    if header != ["t", "abs_C"]:
        problems.append(f"header {header}")
    t, mag = rows[:, 0], rows[:, 1]
    if t[0] == 0.0 and abs(mag[0] - 1.0) > SURVIVAL_TOL:
        problems.append(f"|C(0)| = {mag[0]!r}")
    if mag.max() > 1.0 + SURVIVAL_TOL:
        problems.append(f"max |C| = {mag.max()!r}")
    wp, wn, E = exp.weight_positive.tolist(), exp.weight_negative.tolist(), exp.energies.tolist()
    worst = 0.0
    for i in sample_indices(t.size):
        re = sum((p + q) * math.cos(e * t[i]) for p, q, e in zip(wp, wn, E))
        im = sum((q - p) * math.sin(e * t[i]) for p, q, e in zip(wp, wn, E))
        worst = max(worst, abs(math.hypot(re, im) - mag[i]))
    if worst > SURVIVAL_TOL:
        problems.append(f"direct per-level sum differs by {worst:.3e}")
    return {"direct_sum_dev": worst}


def check_timescales(cmd, problems):
    cfg, spec, _ = expansion(cmd["argv"])
    with open(cmd["out"], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    keys = ["schema", "n0", "delta_n", "residual", "T1", "T2", "T3", "params"]
    if list(doc) != keys:
        problems.append(f"fields {list(doc)}")
        return {}
    p = doc["params"]
    sc = time_scales(doc["n0"], PhysicalParams(M=p["mass"], kz=p["kz"], eB=p["eB"]))
    for name in ("T1", "T2", "T3"):
        if abs(getattr(sc, name) / doc[name] - 1.0) > SURVIVAL_TOL:
            problems.append(f"{name} {doc[name]!r} != {getattr(sc, name)!r}")
    if not 0.0 < doc["T1"] < doc["T2"] < doc["T3"]:
        problems.append("periods not ordered")
    if cfg.get("ab_ratio") is None:
        return {}
    achieved = p["kz"] / math.sqrt(2.0 * doc["n0"] * p["eB"])
    return {"ab_rel_err": abs(achieved / cfg["ab_ratio"] - 1.0)}


def check_density(cmd, problems):
    cfg, spec, exp = expansion(cmd["argv"])
    if cfg["format"] == "json":
        with open(cmd["out"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        grid = SpatialGrid2D(s_min=doc["s_min"], s_max=doc["s_max"], ns=doc["ns"],
                             t_min=doc["t_min"], t_max=doc["t_max"], nt=doc["nt"],
                             values=np.array(doc["values"]).reshape(doc["nt"], doc["ns"]),
                             eB=spec.params.eB)
        s, t = grid.s, grid.t
    else:
        header, rows = read_csv(cmd["out"])
        if header != ["s", "t", "value"]:
            problems.append(f"header {header}")
        ns = int(np.count_nonzero(rows[:, 1] == rows[0, 1]))
        nt = rows.shape[0] // ns
        s, t = rows[:ns, 0], rows[::ns, 1]
        grid = SpatialGrid2D(s_min=s[0], s_max=s[-1], ns=ns, t_min=t[0], t_max=t[-1], nt=nt,
                             values=rows[:, 2].reshape(nt, ns), eB=spec.params.eB)
    integral_dev = float(np.abs(grid.row_integrals() - 1.0).max())
    if integral_dev > ROW_INTEGRAL_TOL:
        problems.append(f"row integral off by {integral_dev:.3e}")
    closed_dev = max(float(np.abs(density_closed_form(exp, s, float(t[i])) - grid.values[i]).max())
                     for i in sample_indices(grid.nt))
    if closed_dev > DENSITY_TOL:
        problems.append(f"closed form differs by {closed_dev:.3e}")
    return {"row_integral_dev": integral_dev, "closed_form_dev": closed_dev, **ab_rel_err(cfg, spec)}


def check_observables(cmd, problems):
    cfg, spec, exp = expansion(cmd["argv"])
    header, rows = read_csv(cmd["out"])
    col = {name: rows[:, i] for i, name in enumerate(header)}
    t = col["t"]
    engine_dev = 0.0
    for g in cli._EXPORTED_GENERATORS:
        engine_dev = max(engine_dev, float(np.abs(col[g.value] - closed_form_series(exp, g, t)).max()))
    if engine_dev > ENGINE_TOL:
        problems.append(f"engine differs from closed form by {engine_dev:.3e}")
    g0, sz = col[GeneratorId.GAMMA0.value], col[GeneratorId.GAMMA5_ALPHA_Z.value]
    g5gz, igz = col[GeneratorId.GAMMA5_GAMMA_Z.value], col[GeneratorId.I_GAMMA_Z.value]
    az = col[GeneratorId.ALPHA_Z.value]
    conc = 0.5 * (1.0 + g0) * (1.0 - sz)
    mi = 2.0 - 0.5 * ((1.0 + g0) ** 2 + (1.0 + g5gz) ** 2 + (sz - 1.0) ** 2 - igz ** 2 - 4.0 * az ** 2)
    formula_dev = max(float(np.abs(conc - col["concurrence_sq"]).max()),
                      float(np.abs(mi - col["mutual_information"]).max()))
    if formula_dev > FORMULA_TOL:
        problems.append(f"concurrence/mutual information formula off by {formula_dev:.3e}")
    return {"engine_dev": engine_dev, "formula_dev": formula_dev, **ab_rel_err(cfg, spec)}


def check_validate(cmd, problems):
    with open(cmd["stdout"], "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines or not all(line.endswith("PASS") for line in lines):
        problems.append("not every validate line is PASS")
    return {"checks": len(lines)}


CHECKS = {
    "spectral": check_spectral,
    "survival": check_survival,
    "timescales": check_timescales,
    "density": check_density,
    "observables": check_observables,
    "validate": check_validate,
}


def check_command(cmd: dict) -> dict:
    problems: list[str] = []
    diag: dict = {}
    if cmd["exit"] != 0:
        problems.append(f"exit code {cmd['exit']}")
    else:
        try:
            diag = CHECKS[cmd["argv"][0]](cmd, problems)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return {"ok": not problems, "problems": problems, "diag": diag}


def main(argv: list[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps({cmd["label"]: check_command(cmd) for cmd in manifest["commands"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
