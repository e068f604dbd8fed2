"""Span tracer that times dirac_revivals from outside the package.

`Tracer.install()` wraps every public function defined in the package
modules and rebinds each name in every namespace that holds it: the
defining module, modules that imported it with `from .x import y`, the
package `__init__`, and dispatch dicts such as `cli._COMMANDS`.  Patching
only the defining module would miss the calls made through those direct
bindings.  Each call records a span (name, start, end, parent); spans stay
in memory; `summary()` reduces them and the caller writes them out.  Self time is a
span's duration minus the time its child spans cover.

Run as a script it is the traced form of one CLI command:

    python3 perfbench/tracer.py SPANS.json <cli arguments...>

which imports `dirac_revivals.cli`, installs the tracer, calls
`cli.main(argv)`, writes the spans and import time to SPANS.json and exits
with the command's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

PACKAGE = "dirac_revivals"
MODULES = ("cli", "catstate", "landau", "numerics", "evolution", "density",
           "observables", "dataio")
# called once per number written; a span each would swamp the writers' own cost
UNTRACED = frozenset({"dataio.format_number"})


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if hasattr(x, "__len__") else 1
    n = 1
    for d in shape:
        n *= int(d)
    return n


def _count_numbers(doc) -> int:
    if isinstance(doc, dict):
        return sum(_count_numbers(v) for v in doc.values())
    if isinstance(doc, (list, tuple)):
        return sum(_count_numbers(v) for v in doc)
    return int(isinstance(doc, (int, float)) and not isinstance(doc, bool))


def _written(values):
    """Counter for a writer: bytes of the file it wrote and numbers in it."""
    def count(a, result):
        return {"bytes": os.path.getsize(a["path"]), "values": values(a)}
    return count


# Work counts computed from call arguments (labelled computed in the report).
COUNTERS = {
    "catstate.expand": lambda a, r: {"levels": len(r.levels)},
    "numerics.hermite_table": lambda a, r: {"cells": (a["n_max"] + 1) * _size(a["s"])},
    "evolution.survival_amplitude": lambda a, r: {"phase_cells": _size(a["t"]) * len(a["exp"].levels)},
    "observables.expectation_values": lambda a, r: {"trig_cells": _size(a["t"]) * len(a["exp"].levels)},
    "dataio.write_spectral_csv": _written(lambda a: 2 * len(a["spectral"].lines)),
    "dataio.write_series_csv": _written(
        lambda a: _size(a["series"].values) * (4 if a["series"].values.dtype.kind == "c" else 2)),
    "dataio.write_columns_csv": _written(lambda a: _size(a["t"]) * (1 + len(a["columns"]))),
    "dataio.write_grid_csv": _written(lambda a: 3 * a["grid"].nt * a["grid"].ns),
    "dataio.write_grid_json": _written(lambda a: a["grid"].nt * a["grid"].ns + 6),
    "dataio.write_timescales_json": _written(lambda a: 1 + _count_numbers(a["report"])),
}


class Tracer:
    """In-memory span recorder over the package's public functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[dict, object, object]] = []
        self._originals: list = []  # keeps wrapped ids stable while installed

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for stat, value in counter(bound.arguments, result).items():
                    key = f"{name}.{stat}"
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public package function and rebind each name that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrappers: dict[int, object] = {}
        for modname, mod in mods.items():
            for key, obj in vars(mod).items():
                name = f"{modname}.{key}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not key.startswith("_") and name not in UNTRACED):
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self._originals.append(obj)
        namespaces = [vars(sys.modules[PACKAGE])] + [vars(m) for m in mods.values()]
        for ns in namespaces:
            for key, obj in list(ns.items()):
                if id(obj) in wrappers:
                    self._patches.append((ns, key, obj))
                    ns[key] = wrappers[id(obj)]
                elif isinstance(obj, dict) and key != "__builtins__":
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._patches.append((obj, k, v))
                            obj[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()
        self._originals = []

    def summary(self) -> dict:
        """Per-name calls and self time, plus the computed counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "spans": len(self.spans)}


def _main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import dirac_revivals.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit": code, "summary": tracer.summary(),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
