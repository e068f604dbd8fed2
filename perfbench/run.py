"""Benchmark of the dirac-revivals library and CLI, measured from outside it.

    python3 perfbench/run.py --workload {cli-a5,cli-a20,sweep} --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
`src/` of that checkout.  One benchmark process runs a closed loop, one
command or configuration at a time, for S seconds of whole passes:

- cli-a5:  the seven README commands at a = 5, each in a fresh process;
- cli-a20: survival, density (CSV) and observables at a = 20;
- sweep:   seeded configurations through the library in one process.

With --trace 0 the last stdout line reports the end-to-end metrics
(wall_s, cpu_s, peak_rss_mb, setup_s, ok_ratio).  With --trace 1 untraced
and traced passes alternate (U T T U ...), and it reports the per-layer
metrics from the traced passes (spans recorded by perfbench/tracer.py) plus
the tracing overhead.  Every output is checked (perfbench/check.py,
perfbench/sweep.py); a run record with environment, per-command figures and
output digests is written under .perfbench_out/.  --smoke runs every
workload at tiny sizes in both modes and checks the printed metric names
against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0          # every run ends well inside the 180 s budget
SETUP_PROBES = 5
SWEEP_CONFIGS = 48

CLI_WORKLOADS = {
    "cli-a5": [
        ("spectral", "spectral --a 5 --mass 0 --out spectral.csv"),
        ("survival", "survival --a 5 --tmin 0 --tmax 444 --samples 120001 --out survival.csv"),
        ("timescales", "timescales --a 5 --ab-ratio 2.04 --out scales.json"),
        ("density_csv", "density --a 5 --ab-ratio 2.04 --tmax 106 --nt 301 --ns 1201 --out grid.csv"),
        ("density_json", "density --a 5 --format json --out grid.json"),
        ("observables", "observables --a 5 --ab-ratio 2.04 --samples 2000 --out obs.csv"),
        ("validate", "validate --a 5"),
    ],
    "cli-a20": [
        ("survival", "survival --a 20 --samples 120001 --out survival.csv"),
        ("density_csv", "density --a 20 --ab-ratio 2.04 --nt 301 --ns 1201 --out grid.csv"),
        ("observables", "observables --a 20 --ab-ratio 2.04 --samples 20000 --out obs.csv"),
    ],
}
# the same commands at tiny sizes, for --smoke
TINY_CLI_WORKLOADS = {
    "cli-a5": [
        ("spectral", "spectral --a 5 --mass 0 --out spectral.csv"),
        ("survival", "survival --a 5 --tmin 0 --tmax 44 --samples 2001 --out survival.csv"),
        ("timescales", "timescales --a 5 --ab-ratio 2.04 --out scales.json"),
        ("density_csv", "density --a 5 --ab-ratio 2.04 --tmax 106 --nt 5 --ns 1201 --out grid.csv"),
        ("density_json", "density --a 5 --format json --nt 5 --out grid.json"),
        ("observables", "observables --a 5 --ab-ratio 2.04 --samples 200 --out obs.csv"),
        ("validate", "validate --a 5"),
    ],
    "cli-a20": [
        ("survival", "survival --a 20 --samples 2001 --out survival.csv"),
        ("density_csv", "density --a 20 --ab-ratio 2.04 --nt 3 --ns 1201 --out grid.csv"),
        ("observables", "observables --a 20 --ab-ratio 2.04 --samples 200 --out obs.csv"),
    ],
}
TINY_SWEEP_CONFIGS = 6
WORKLOADS = ("cli-a5", "cli-a20", "sweep")
COMMAND_LABELS = [label for label, _ in CLI_WORKLOADS["cli-a5"]]
MODULES = ("cli", "catstate", "landau", "numerics", "evolution", "density", "observables", "dataio")
WRITERS = ("write_spectral_csv", "write_series_csv", "write_columns_csv", "write_grid_csv",
           "write_grid_json", "write_timescales_json")
# sweep failures on the two known domain edges; any other failure is unexpected
KNOWN_EDGES = ("fit_edge", "engine_drift")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("ok_ratio", "ratio")]
# traced functions reported by name: (function, stats)
TRACED_FUNCTIONS = [
    ("cli.make_spec", ("self_s",)),
    ("numerics.hermite_table", ("calls", "self_s", "cells")),
    ("numerics.gauss_hermite", ("calls", "self_s")),
    ("numerics.hermite_poly_table", ("calls", "self_s")),
    ("evolution.evolve_profile", ("calls", "self_s")),
    ("evolution.survival_amplitude", ("calls", "self_s", "phase_cells")),
    ("evolution.time_scales", ("calls",)),
    ("density.density_grid", ("self_s",)),
    ("density.probability_density", ("calls",)),
    ("observables.expectation_values", ("calls", "self_s", "trig_cells")),
    ("observables.expectation_series", ("self_s",)),
    ("observables.correlation_series", ("self_s",)),
    ("observables.matrix_element", ("calls", "self_s")),
    ("landau.spinor_component_table", ("calls", "self_s")),
    ("catstate.expand", ("calls", "self_s", "levels")),
    ("catstate.gaussian_fit", ("calls", "self_s")),
    ("catstate.expand_oracle", ("self_s",)),
] + [(f"dataio.{w}", ("self_s",)) for w in WRITERS]
STAT_UNITS = {"self_s": "s", "calls": "count", "cells": "count", "phase_cells": "count",
              "trig_cells": "count", "levels": "count"}
PER_LAYER = (
    [(f"cli.{label}.{stat}", unit) for label in COMMAND_LABELS
     for stat, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"))]
    + [("cli.import_s", "s"), ("cli.make_spec.ab_rel_err_max", "ratio")]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [(f"{fn}.{stat}", STAT_UNITS[stat]) for fn, stats in TRACED_FUNCTIONS for stat in stats]
    + [("dataio.bytes", "bytes"), ("dataio.values", "count"),
       ("sweep.fit_edge_configs", "count"), ("sweep.engine_drift_configs", "count"),
       ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.import_s", "s"), ("trace.unattributed_s", "s"), ("trace.spans", "count")]
)

PROBE = ("import time; t = time.perf_counter(); import dirac_revivals.cli as c; "
         "d = time.perf_counter() - t; print(time.monotonic_ns(), d, c.__file__)")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, timeout, ...)."""


def median(values):
    return statistics.median(values)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd, deadline, stdout=None) -> dict:
    """Run one process to completion; its wall time, CPU and peak RSS from wait4."""
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise BenchError("run time limit reached")
    with open(stdout or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise BenchError(f"run time limit reached while running {argv}")
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def run_json(argv, cwd, deadline) -> dict:
    timeout = deadline - time.monotonic()
    proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 0.1))
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def setup_probes(count: int, deadline: float) -> list[dict]:
    """Fresh interpreters timed from spawn to the end of `import dirac_revivals.cli`."""
    probes = []
    for _ in range(count):
        t_spawn = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 0.1))
        if proc.returncode != 0:
            raise BenchError(f"cannot import dirac_revivals.cli from {SRC}:\n{proc.stderr}")
        t_done, import_s, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"dirac_revivals imported from {module_file}, not from {SRC}")
        probes.append({"setup_s": (int(t_done) - t_spawn) / 1e9, "import_s": float(import_s)})
    return probes


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


def cli_pass(commands, workdir: Path, traced: bool, deadline: float) -> list[dict]:
    records = []
    for label, args in commands:
        argv = args.split()
        stdout = workdir / f"{label}.stdout"
        spans = workdir / f"spans-{label}.json"
        out = workdir / argv[argv.index("--out") + 1] if "--out" in argv else stdout
        for stale in (out, spans):  # a command that writes nothing must not pass on old files
            stale.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans)] + argv
        else:
            cmd = [sys.executable, "-m", "dirac_revivals.cli"] + argv
        rec = {"label": label, "argv": argv, "traced": traced,
               **run_child(cmd, workdir, deadline, stdout)}
        rec["out"], rec["stdout"] = str(out), str(stdout)
        rec["sha256"] = sha256_file(out) if out.is_file() else None
        if traced:
            if not spans.is_file():
                raise BenchError(f"traced {label} wrote no spans (exit {rec['exit']})")
            with open(spans, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            rec["import_s"], rec["summary"] = doc["import_s"], doc["summary"]
        records.append(rec)
    return records


def check_pass(records, verdicts: dict, workdir: Path, deadline: float) -> None:
    """Give every record a verdict; outputs seen before with these bytes reuse theirs."""
    todo = [r for r in records if (r["label"], r["exit"], r["sha256"]) not in verdicts]
    if todo:
        manifest = workdir / "manifest.json"
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"commands": todo}, fh)
        found = run_json([sys.executable, str(BENCH / "check.py"), str(manifest)], workdir, deadline)
        for r in todo:
            verdicts[(r["label"], r["exit"], r["sha256"])] = found[r["label"]]
    for r in records:
        r["check"] = verdicts[(r["label"], r["exit"], r["sha256"])]


def run_cli(workload, commands, seconds, trace, deadline) -> dict:
    workdir = OUT / workload
    workdir.mkdir(parents=True, exist_ok=True)
    passes: list[list[dict]] = []
    verdicts: dict = {}
    measured = 0.0  # checks run between passes and are not part of the measured time
    while len(passes) < (2 if trace else 1) or measured < seconds:
        traced = bool(trace) and len(passes) % 4 in (1, 2)  # U T T U: drift cancels
        t0 = time.perf_counter()
        records = cli_pass(commands, workdir, traced, deadline)
        measured += time.perf_counter() - t0
        check_pass(records, verdicts, workdir, deadline)
        passes.append(records)
    ops = [r for p in passes for r in p]
    untraced = [p for p in passes if not p[0]["traced"]]
    labels = [label for label, _ in commands]

    def per_label(key, label):
        return median([r[key] for p in untraced for r in p if r["label"] == label])

    e2e = {
        "wall_s": sum(per_label("wall_s", label) for label in labels),
        "cpu_s": sum(per_label("cpu_s", label) for label in labels),
        "peak_rss_mb": median([max(r["peak_rss_mb"] for r in p) for p in untraced]),
    }
    layers = {f"cli.{label}.{key}": per_label(key, label) if label in labels else 0.0
              for label in COMMAND_LABELS for key in ("wall_s", "peak_rss_mb")}
    diags = [r["check"]["diag"].get("ab_rel_err") for r in ops]
    layers["cli.make_spec.ab_rel_err_max"] = max((d for d in diags if d is not None), default=0.0)
    layers["sweep.fit_edge_configs"] = layers["sweep.engine_drift_configs"] = 0
    traced_passes = [{"wall_s": sum(r["wall_s"] for r in p),
                      "import_s": sum(r["import_s"] for r in p),
                      "summary": merge_summaries([r["summary"] for r in p])}
                     for p in passes if p[0]["traced"]]
    untraced_walls = [sum(r["wall_s"] for r in p) for p in untraced]
    failed = [r for r in ops if not r["check"]["ok"]]
    return {
        "attempted": len(ops), "failed": len(failed), "correct": not failed,
        "e2e": e2e, "layers": layers, "untraced_walls": untraced_walls,
        "traced_passes": traced_passes,
        "record": {"passes": [[{k: v for k, v in r.items() if k != "summary"} for r in p]
                              for p in passes],
                   "failures": [{"label": r["label"], "problems": r["check"]["problems"]}
                                for r in failed],
                   "spans_dir": str(workdir)},
    }


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def run_sweep(seed, configs, seconds, trace, deadline) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / "sweep-pass.json"
    spans_path = OUT / f"sweep-spans-seed{seed}.json"
    passes = []
    measured = 0.0  # checks run between configurations and are not part of the measured time
    while len(passes) < (2 if trace else 1) or measured < seconds:
        traced = bool(trace) and len(passes) % 4 in (1, 2)  # U T T U: drift cancels
        argv = [sys.executable, str(BENCH / "sweep.py"), str(result_path),
                "--seed", str(seed), "--configs", str(configs)]
        if traced:
            argv += ["--trace", str(spans_path)]
        result_path.unlink(missing_ok=True)
        proc = run_child(argv, ROOT, deadline)
        if proc["exit"] != 0:
            raise BenchError(f"sweep pass failed with exit {proc['exit']}")
        with open(result_path, "r", encoding="utf-8") as fh:
            p = json.load(fh)
        p.update(traced=traced, peak_rss_mb=proc["peak_rss_mb"], process=proc)
        measured += p["wall_s"]
        passes.append(p)
    untraced = [p for p in passes if not p["traced"]]
    kinds = [c["failure"] for p in passes for c in p["configs"]]
    unexpected = [k for k in kinds if k is not None and k not in KNOWN_EDGES]
    # every pass ran the same draw, so every pass must fail on the same configurations
    first = passes[0]["configs"]
    mismatched = [i for i, p in enumerate(passes)
                  if [c["failure"] for c in p["configs"]] != [c["failure"] for c in first]]
    ab = [c["ab_rel_err"] for c in first if "ab_rel_err" in c]
    fails = [c["failure"] for c in first]
    return {
        "attempted": len(kinds),
        "failed": sum(k is not None for k in kinds),
        "correct": not unexpected and not mismatched,
        "e2e": {key: median([p[key] for p in untraced])
                for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        "layers": {**{f"cli.{label}.{key}": 0.0 for label in COMMAND_LABELS
                      for key in ("wall_s", "peak_rss_mb")},
                   "cli.make_spec.ab_rel_err_max": max(ab, default=0.0),
                   "sweep.fit_edge_configs": fails.count("fit_edge"),
                   "sweep.engine_drift_configs": fails.count("engine_drift")},
        "untraced_walls": [p["wall_s"] for p in untraced],
        "traced_passes": [{"wall_s": p["wall_s"], "import_s": 0.0, "summary": p["summary"]}
                          for p in passes if p["traced"]],
        "record": {"passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes],
                   "unexpected_failures": unexpected, "mismatched_passes": mismatched,
                   "spans_file": str(spans_path) if trace else None},
    }


# ----------------------------------------------------------------------
# per-layer metrics from traced passes
# ----------------------------------------------------------------------


def merge_summaries(parts: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "counts": {}, "spans": 0}
    for part in parts:
        for key in ("calls", "self_s", "counts"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["spans"] += part["spans"]
    return out


def layer_values(tp: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    s = tp["summary"]
    vals = {}
    for m in MODULES:
        vals[f"{m}.self_s"] = sum(v for k, v in s["self_s"].items() if k.startswith(m + "."))
    for fn, stats in TRACED_FUNCTIONS:
        for stat in stats:
            if stat in ("calls", "self_s"):
                vals[f"{fn}.{stat}"] = s[stat].get(fn, 0)
            else:
                vals[f"{fn}.{stat}"] = s["counts"].get(f"{fn}.{stat}", 0)
    for stat in ("bytes", "values"):
        vals[f"dataio.{stat}"] = sum(s["counts"].get(f"dataio.{w}.{stat}", 0) for w in WRITERS)
    vals["trace.traced_wall_s"] = tp["wall_s"]
    vals["trace.import_s"] = tp["import_s"]
    vals["trace.unattributed_s"] = (tp["wall_s"] - tp["import_s"]
                                    - sum(vals[f"{m}.self_s"] for m in MODULES))
    vals["trace.spans"] = s["spans"]
    return vals


def per_layer_metrics(res: dict, probes: list[dict]) -> dict:
    per_pass = [layer_values(tp) for tp in res["traced_passes"]]
    vals = {name: median([v[name] for v in per_pass]) for name in per_pass[0]}
    vals.update(res["layers"])
    vals["cli.import_s"] = median([p["import_s"] for p in probes])
    vals["trace.untraced_wall_s"] = median(res["untraced_walls"])
    vals["trace.overhead_s"] = vals["trace.traced_wall_s"] - vals["trace.untraced_wall_s"]
    return vals


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    if not (SRC / "dirac_revivals" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    # warm-up import: byte-compiles the sources and records the environment
    env_info = run_json([sys.executable, str(BENCH / "envinfo.py")], ROOT, deadline)
    probes = setup_probes(2 if tiny else SETUP_PROBES, deadline)
    if workload == "sweep":
        res = run_sweep(seed, TINY_SWEEP_CONFIGS if tiny else SWEEP_CONFIGS, seconds, trace, deadline)
    else:
        commands = (TINY_CLI_WORKLOADS if tiny else CLI_WORKLOADS)[workload]
        res = run_cli(workload, commands, seconds, trace, deadline)
    if trace:
        vals = per_layer_metrics(res, probes)
        units = dict(PER_LAYER)
    else:
        vals = dict(res["e2e"], setup_s=median([p["setup_s"] for p in probes]),
                    ok_ratio=(res["attempted"] - res["failed"]) / res["attempted"])
        units = dict(END_TO_END)
    metrics = {name: {"value": vals[name], "unit": unit} for name, unit in units.items()}
    line = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "commit": git_commit(), "source_sha256": source_digest(),
        "environment": env_info, "setup_probes": probes,
        "result": line, **res["record"],
    }
    with open(OUT / f"record-{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def print_result(line: dict) -> None:
    for name, m in line["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(line))


def smoke() -> int:
    """Every workload at tiny sizes, both modes: outputs check and metric names match."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, record = run(workload, seed=1, seconds=0, trace=trace, tiny=True)
            printed = {n: m["unit"] for n, m in line["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if printed != declared[trace]:
                problems.append(f"{where}: printed metrics differ from BENCHMARK.json")
            if not line["correct"]:
                found = record.get("failures") or record.get("unexpected_failures")
                problems.append(f"{where}: output checks failed: {found}")
            if workload != "sweep" and line["failed"]:
                problems.append(f"{where}: {line['failed']} failed commands")
            print(f"smoke {where}: attempted {line['attempted']} failed {line['failed']} "
                  f"correct {line['correct']}", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        line, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print_result(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
