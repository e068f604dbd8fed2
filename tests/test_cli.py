"""Command-line surface: outputs, determinism, config handling, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dirac_revivals
from dirac_revivals import catstate, cli, observables, oracle
from dirac_revivals.catstate import A_MAX, CatSpec, expand, gaussian_fit
from dirac_revivals.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION,
                                _EXPORTED_GENERATORS, _KZ_RTOL, main)
from dirac_revivals.density import density_closed_form
from dirac_revivals.evolution import time_scales
from dirac_revivals.landau import PhysicalParams


def test_import_loads_numpy_only():
    # the package and its CLI need numpy alone; scipy would add ~0.2 s and
    # ~50 MB to every process
    src = os.path.dirname(os.path.dirname(dirac_revivals.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, dirac_revivals, dirac_revivals.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


# the public names in their order in dirac_revivals.__all__
PUBLIC = [
    "A_MAX", "CatExpansion", "CatSpec", "LevelFit", "SpectralFunction",
    "expand", "gaussian_fit", "initial_profile", "spectral_function",
    "SpatialGrid2D", "density_closed_form", "density_grid", "probability_density",
    "TimeScales", "TimeSeries", "autocorrelation_series", "evolve_profile",
    "kz_for_ab_ratio", "survival_amplitude", "survival_series", "time_scales",
    "PhysicalParams", "energy", "energy_derivatives",
    "find_peaks", "hermite_table",
    "GeneratorId", "ObservableSeries", "closed_form_series", "concurrence_sq",
    "correlation_series", "expectation_series", "expectation_values",
    "mutual_information",
    "expand_oracle", "matrix_elements",
]


def fresh(code, **env):
    """stdout of code in a fresh interpreter, under an environment built here.

    This process imported the CLI, so its own environment holds the CLI's
    OPENBLAS_NUM_THREADS; the child starts without it unless env sets it.
    """
    src = os.path.dirname(os.path.dirname(dirac_revivals.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(base, PYTHONPATH=path, **env),
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_readme_library_sketch_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```$", fh.read(), re.S | re.M)
    fresh(sketch.group(1))


class TestStartup:
    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        code = ("import os, sys, dirac_revivals; "
                "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert fresh(code) == "False None\n"

    def test_cli_import_leaves_the_oracle_out(self):
        # the import loads the CLI and the seven engine modules; validate loads the oracle
        code = ("import os, sys, dirac_revivals.cli as cli\n"
                "def loaded():\n"
                "    names = (m.partition('.') for m in sys.modules)\n"
                "    print(*sorted(sub for pkg, _, sub in names if pkg == 'dirac_revivals' and sub))\n"
                "loaded(); cli.main(['validate', '--a', '1', '--out', os.devnull]); loaded()")
        engine = "catstate cli dataio density evolution landau numerics observables"
        assert fresh(code) == f"{engine}\n{engine} oracle\n"

    def test_public_names_resolve_in_order(self):
        code = ("import json, dirac_revivals as dr; ns = {}; "
                "exec('from dirac_revivals import *', ns); del ns['__builtins__']; "
                "same = all(ns[n] is getattr(dr, n) for n in dr.__all__); "
                "print(json.dumps([dr.__all__, list(ns), same]))")
        names, bound, same = json.loads(fresh(code))
        assert names == bound == PUBLIC
        assert same
        for name in PUBLIC[1:]:  # the object its defining submodule holds (A_MAX is a float)
            obj = getattr(dirac_revivals, name)
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_unknown_name_raises_attribute_error(self):
        code = ("import dirac_revivals\n"
                "try:\n    dirac_revivals.no_such_name\n"
                "except AttributeError as exc:\n    print(exc)")
        assert fresh(code) == "module 'dirac_revivals' has no attribute 'no_such_name'\n"

    def test_cli_runs_one_blas_thread(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count the process's threads")
        code = ("import os, dirac_revivals.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        assert fresh(code) == "1 1\n"

    def test_user_thread_count_wins(self):
        code = "import os, dirac_revivals.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh(code, OPENBLAS_NUM_THREADS="3") == "3\n"


def run(tmp_path, *argv):
    return main(list(argv))


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[2:]]
    return header, np.array(rows)


class TestSpectral:
    def test_weights_and_sorting(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectral", "--a", "5", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["energy", "weight"]
        assert abs(rows[:, 1].sum() - 1.0) <= 1e-9
        assert np.all(np.diff(rows[:, 0]) > 0.0)

    def test_fitted_center_grows_with_distance(self, tmp_path):
        n0 = {}
        for a in ("1", "10"):
            out = tmp_path / f"ts{a}.json"
            assert main(["timescales", "--a", a, "--out", str(out)]) == EXIT_OK
            n0[a] = json.loads(out.read_text())["n0"]
        assert n0["10"] > n0["1"]

    def test_massive_small_cat_positive_dominated(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectral", "--a", "1", "--mass", "5", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        negative = rows[rows[:, 0] < 0.0, 1].sum()
        assert negative < 0.05


class TestSurvival:
    def test_first_row_unity_and_determinism(self, tmp_path):
        a = tmp_path / "s1.csv"
        b = tmp_path / "s2.csv"
        args = ["survival", "--a", "5", "--tmin", "0", "--tmax", "30", "--samples", "300"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        header, rows = read_csv(a)
        assert header == ["t", "abs_C"]
        assert rows[0, 0] == 0.0 and abs(rows[0, 1] - 1.0) < 1e-12

    def test_point_state_with_explicit_window(self, tmp_path):
        # the fit refuses the S state at a = 0 (center n0 = 0); explicit windows bypass it
        out = tmp_path / "s.csv"
        assert main(["survival", "--a", "0", "--mass", "5", "--tmax", "20",
                     "--samples", "400", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert rows[:, 1].min() > 0.9

    def test_complex_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["survival", "--a", "3", "--tmax", "5", "--samples", "50",
                     "--complex", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "re", "im", "abs"]
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(np.hypot(rows[:, 1], rows[:, 2]) - rows[:, 3]) < 1e-12)


class TestTimescales:
    def test_report_fields_and_order(self, tmp_path):
        out = tmp_path / "ts.json"
        assert main(["timescales", "--a", "5", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        doc = json.loads(text)
        assert list(doc)[:7] == ["schema", "n0", "delta_n", "residual", "T1", "T2", "T3"]
        assert doc["T1"] < doc["T2"] < doc["T3"]
        # byte stability
        out2 = tmp_path / "ts2.json"
        main(["timescales", "--a", "5", "--out", str(out2)])
        assert out2.read_text() == text

    def test_infinite_period_is_refused_not_written(self, tmp_path, capsys):
        # eB**2 and eB**3 underflow, so T2 and T3 are infinite; RFC 8259 JSON
        # has no Infinity
        out = tmp_path / "ts.json"
        assert main(["timescales", "--mass", "1", "--eB", "1e-170",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "T2 = inf" in err and "T3 = inf" in err
        assert not out.exists()

    def test_ab_ratio_solves_kz(self, tmp_path):
        out = tmp_path / "ts.json"
        assert main(["timescales", "--a", "5", "--ab-ratio", "2.04", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["params"]["solved_kz"] == pytest.approx(
            2.04 * math.sqrt(2.0 * doc["n0"]), rel=1e-12)

    @pytest.mark.parametrize("mass", [0.0, 1.0, 5.0])
    def test_ab_ratio_fit_is_self_consistent(self, tmp_path, mass):
        # for M > 0 the fitted weights carry eta_n(kz): a fit at kz = 0 alone
        # misses A/B = 2.04 at the reported n0 by ~3e-3
        argv = ["timescales", "--a", "5", "--mass", str(mass), "--ab-ratio", "2.04"]
        out, out2 = tmp_path / "ts.json", tmp_path / "ts2.json"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out.read_bytes() == out2.read_bytes()
        doc = json.loads(out.read_text())
        p = doc["params"]
        assert p["kz_converged"] is True
        assert p["kz"] == p["solved_kz"] == pytest.approx(
            2.04 * math.sqrt(2.0 * doc["n0"]), rel=1e-12)
        params = PhysicalParams(M=mass, kz=p["kz"], eB=1.0)
        refit = gaussian_fit(expand(CatSpec("S", 5.0, params)))
        assert refit.n0 == pytest.approx(doc["n0"], rel=_KZ_RTOL)
        scales = time_scales(doc["n0"], params)
        assert (doc["T1"], doc["T2"], doc["T3"]) == (scales.T1, scales.T2, scales.T3)

    def test_small_a_antisymmetric_fit_converges(self, tmp_path):
        # the level distribution holds few levels here; a fit that wandered
        # off returned n0 = 233 with residual 0.43 after the 8-fit cap
        out = tmp_path / "ts.json"
        assert main(["timescales", "--a", "1", "--symmetry", "A", "--mass", "1",
                     "--ab-ratio", "2.04", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["params"]["kz_converged"] is True
        assert 1.0 <= doc["n0"] <= 2.0
        assert doc["residual"] < 1e-3

    @pytest.mark.parametrize("command, multiple, period, extra", [
        ("survival", 2.0, "T1", ["--samples", "11"]),
        ("density", 3.0, "T1", ["--nt", "3", "--ns", "11", "--format", "json"]),
        ("observables", 1.0, "T2", ["--samples", "11"]),
    ])
    def test_ab_ratio_default_window_uses_solved_fit(self, tmp_path, command, multiple,
                                                     period, extra):
        common = ["--a", "5", "--mass", "1", "--ab-ratio", "2.04"]
        ts = tmp_path / "ts.json"
        assert main(["timescales", *common, "--out", str(ts)]) == EXIT_OK
        expected = multiple * json.loads(ts.read_text())[period]
        out = tmp_path / "out"
        assert main([command, *common, *extra, "--out", str(out)]) == EXIT_OK
        if command == "density":
            tmax = json.loads(out.read_text())["t_max"]
        else:
            tmax = read_csv(out)[1][-1, 0]
        # a fresh fit at the solved kz would move the window by ~1e-12
        assert tmax == pytest.approx(expected, rel=1e-14)


class TestDensity:
    def test_rows_normalized_and_symmetric(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["density", "--a", "3", "--tmax", "10", "--nt", "3",
                     "--ns", "2001", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["s", "t", "value"]
        for t in np.unique(rows[:, 1]):
            sel = rows[rows[:, 1] == t]
            integral = np.trapezoid(sel[:, 2], sel[:, 0])
            assert integral == pytest.approx(1.0, abs=1e-6)
            assert np.abs(sel[:, 2] - sel[::-1, 2]).max() < 1e-12

    @pytest.mark.parametrize("a", [31.0, 32.0, 40.0])
    def test_default_grid_resolves_fringes(self, tmp_path, a):
        # nt = 5 over the default 3*T1 window puts a row on the t = 1.5*T1 hump
        # crossing, where the interference fringes are finest
        out = tmp_path / "d.json"
        assert main(["density", "--a", str(a), "--nt", "5", "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        s = np.linspace(doc["s_min"], doc["s_max"], doc["ns"])
        rows = np.array(doc["values"]).reshape(doc["nt"], doc["ns"])
        assert np.abs(np.trapezoid(rows, s, axis=1) - 1.0).max() < 1e-9
        exp = expand(CatSpec("S", a, PhysicalParams()))
        for t, row in zip(np.linspace(doc["t_min"], doc["t_max"], doc["nt"]), rows):
            assert np.abs(row[::9] - density_closed_form(exp, s[::9], t)).max() < 1e-10

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["density", "--a", "3", "--tmax", "10", "--nt", "3", "--ns", "101",
                     "--format", "json", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert len(doc["values"]) == doc["ns"] * doc["nt"]


class TestObservables:
    def test_columns_and_t0(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["observables", "--a", "5", "--ab-ratio", "2.04",
                     "--samples", "200", "--tmax", "400", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        idx = {name: k for k, name in enumerate(header)}
        assert rows[0, idx["gamma0"]] == pytest.approx(1.0, abs=1e-12)
        assert rows[0, idx["gamma5_alpha_z"]] == pytest.approx(1.0, abs=1e-12)
        assert rows[0, idx["i_gamma_z"]] == pytest.approx(0.0, abs=1e-12)
        assert rows[0, idx["concurrence_sq"]] == pytest.approx(0.0, abs=1e-12)
        assert rows[0, idx["mutual_information"]] == pytest.approx(0.0, abs=1e-12)
        col_a = rows[:, idx["i_gamma_z"]]
        col_b = rows[:, idx["i_gamma0_gamma5"]]
        assert np.abs(col_a - col_b).max() < 1e-10

    @pytest.mark.parametrize("symmetry", ["S", "A"])
    def test_columns_equal_library_series(self, tmp_path, monkeypatch, symmetry):
        calls = []
        engine = observables._grid_values

        def counted(exp, gens, t0, t1, samples):
            calls.append(tuple(gens))
            return engine(exp, gens, t0, t1, samples)

        monkeypatch.setattr(observables, "_grid_values", counted)
        monkeypatch.setattr(cli, "_grid_values", counted)
        out = tmp_path / "o.csv"
        assert main(["observables", "--a", "5", "--symmetry", symmetry, "--tmin", "1",
                     "--tmax", "60", "--samples", "300", "--out", str(out)]) == EXIT_OK
        # one engine call for all six columns; concurrence^2 and mutual
        # information reuse the exported columns
        assert calls == [tuple(_EXPORTED_GENERATORS)]
        monkeypatch.undo()
        header, rows = read_csv(out)
        columns = dict(zip(header, rows.T))
        exp = expand(CatSpec(symmetry, 5.0, PhysicalParams()))
        for g in _EXPORTED_GENERATORS:
            expected = observables.expectation_series(exp, g, 1.0, 60.0, 300).series.values
            assert np.array_equal(columns[g.value], expected)
        for name, series in observables.correlation_series(exp, 1.0, 60.0, 300).items():
            assert np.array_equal(columns[name], series.values)


@pytest.mark.parametrize("argv", [
    ["spectral", "--a", "3"],
    ["survival", "--a", "3", "--tmax", "5", "--samples", "50"],
    ["survival", "--a", "3", "--tmax", "5", "--samples", "50", "--complex"],
    ["timescales", "--a", "3"],
    ["density", "--a", "3", "--tmax", "10", "--nt", "3", "--ns", "51"],
    ["density", "--a", "3", "--tmax", "10", "--nt", "3", "--ns", "51", "--format", "json"],
    ["observables", "--a", "3", "--tmax", "50", "--samples", "40"],
])
def test_stdout_bytes_equal_file_bytes(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(argv + ["--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


class TestValidate:
    def test_default_passes(self, capsys):
        assert main(["validate", "--a", "3"]) == EXIT_OK
        report = capsys.readouterr().out
        assert "PASS" in report and "FAIL" not in report
        for name in ("coefficient_oracle_equivalence", "parity_selection_leak",
                     "normalization_defect", "constraint_identity", "selection_rule_leak"):
            assert name in report

    def test_absurd_tolerance_fails(self):
        assert main(["validate", "--a", "3", "--tol", "1e-30"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("tol, code", [(None, EXIT_OK), ("1e-30", EXIT_VALIDATION)])
    def test_out_file_holds_the_printed_table(self, tmp_path, capsys, tol, code):
        argv = ["validate", "--a", "3"] + ([] if tol is None else ["--tol", tol])
        assert main(argv) == code
        printed = capsys.readouterr().out
        out = tmp_path / "v.txt"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_corrupt_tolerance_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = not-a-number\n")
        assert main(["validate", "--a", "3", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("tol", ["0", "-1e-8"])
    def test_nonpositive_tolerance_names_the_key(self, capsys, tol):
        assert main(["validate", "--a", "3", f"--tol={tol}"]) == EXIT_CONFIG
        assert f"tol must be positive, got {float(tol)}" in capsys.readouterr().err

    def test_passes_past_the_old_oracle_envelope(self, capsys):
        # an oracle built on the envelope-free Hermite parts left the double
        # range from a ~ 27.3; the Christoffel-number sums have no such limit
        for a in ("28", "40", "50"):
            for symmetry in ("S", "A"):
                assert main(["validate", "--a", a, "--symmetry", symmetry]) == EXIT_OK
                lines = capsys.readouterr().out.splitlines()
                assert len(lines) == 5
                assert all(line.endswith("PASS") for line in lines)

    def test_quadrature_overlaps_computed_once(self, monkeypatch, capsys):
        # the oracle coefficients and the parity leak come from one raw array
        calls = []
        raw = oracle.oracle_raw_overlaps

        def counted(*args):
            calls.append(args)
            return raw(*args)

        monkeypatch.setattr(oracle, "oracle_raw_overlaps", counted)
        assert main(["validate", "--a", "5"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        assert len(calls) == 1


# (_parity_weights, _expand_ladder, gaussian_fit) calls per command.  Under
# --ab-ratio the solve builds the level ladder once and the final expansion
# reuses it; a fit is made only where a period is read
LIBRARY_WORK = [
    (["density", "--a", "5", "--ab-ratio", "2.04", "--nt", "3", "--ns", "11"], (1, 3, 2)),
    (["observables", "--a", "5", "--ab-ratio", "2.04", "--samples", "11"], (1, 3, 2)),
    (["timescales", "--a", "5", "--ab-ratio", "2.04"], (1, 2, 2)),
    (["density", "--a", "20", "--ab-ratio", "2.04", "--nt", "3", "--ns", "11"], (1, 3, 2)),
    (["observables", "--a", "20", "--ab-ratio", "2.04", "--samples", "11"], (1, 3, 2)),
    (["timescales", "--a", "20", "--ab-ratio", "2.04"], (1, 2, 2)),
    (["spectral", "--a", "5"], (1, 1, 0)),
    (["validate", "--a", "5"], (1, 1, 0)),
    (["survival", "--a", "5", "--tmax", "5", "--samples", "11"], (1, 1, 0)),
    (["survival", "--a", "5", "--samples", "11"], (1, 1, 1)),
    (["density", "--a", "5", "--nt", "3", "--ns", "11"], (1, 1, 1)),
    (["timescales", "--a", "5"], (1, 1, 1)),
]


@pytest.mark.parametrize("argv, counts", LIBRARY_WORK,
                         ids=[" ".join(argv) for argv, _ in LIBRARY_WORK])
def test_library_work_per_command(tmp_path, monkeypatch, argv, counts):
    calls = dict.fromkeys(("_parity_weights", "_expand_ladder", "gaussian_fit"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(catstate, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(catstate, name, counted)
        monkeypatch.setattr(cli, name, counted)
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    assert tuple(calls.values()) == counts


class TestDomain:
    @pytest.mark.parametrize("a", ["1e200", repr(math.nextafter(A_MAX, math.inf))])
    @pytest.mark.parametrize("command", ["spectral", "survival", "validate"])
    def test_separation_above_the_limit_is_config_error(self, tmp_path, capsys, command, a):
        out = tmp_path / "out"
        argv = [command, "--a", a] + ([] if command == "validate" else ["--out", str(out)])
        assert main(argv) == EXIT_CONFIG
        assert f"exceeds A_MAX = {A_MAX:g}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, quantity", [
        (["timescales", "--eB", "1e160"], "eB**2"),
        (["timescales", "--mass", "1e100"], "E(n0)**5"),
        (["timescales", "--eB", "1e-200"], "E(n0)**5"),
        (["survival", "--eB", "1e-300", "--samples", "11"], "E(n0)**3"),
        (["spectral", "--mass", "1e155"], "E_n = sqrt(M^2 + kz^2 + 2 n eB)"),
        (["spectral", "--eB", "1e307"], "E_n = sqrt(M^2 + kz^2 + 2 n eB)"),
    ], ids=["timescales-eB-1e160", "timescales-mass-1e100", "timescales-eB-1e-200",
            "survival-eB-1e-300", "spectral-mass-1e155", "spectral-eB-1e307"])
    def test_overflowing_physical_input_is_config_error(self, tmp_path, capsys, argv, quantity):
        # refused by name, not by an OverflowError/ZeroDivisionError traceback
        # or an empty table after a RuntimeWarning
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert f"{quantity} leaves the double range" in capsys.readouterr().err
        assert not out.exists()

    def test_solved_kz_outside_the_range_is_named(self, tmp_path, capsys):
        # the refusal of the solved kz is not taken for a failed fit
        out = tmp_path / "ts.json"
        assert main(["timescales", "--ab-ratio", "1e300", "--out", str(out)]) == EXIT_CONFIG
        assert ("E_n = sqrt(M^2 + kz^2 + 2 n eB) leaves the double range "
                "(M = 0, kz = 4.94943e+300, eB = 1)") in capsys.readouterr().err
        assert not out.exists()

    def test_large_finite_mass_runs(self, tmp_path):
        out = tmp_path / "spectral.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["spectral", "--mass", "1e150", "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out)[1]) > 0

    @given(sym=st.sampled_from("SA"), a=st.floats(0.0, 1.0, exclude_min=True),
           mass=st.sampled_from([0.0, 1.0, 5.0]), ab_ratio=st.floats(0.5, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_small_separation_has_finite_periods(self, sym, a, mass, ab_ratio):
        # fewer than 5 levels: the fit keeps its moment estimates.  Below
        # a ~ 5.3e-3 only m = 0 of the S state passes the fit threshold, so
        # n0 = 0 and it is refused as at a = 0
        assume(sym == "A" or a >= 0.006)
        cfg = {"symmetry": sym, "a": a, "mass": mass, "eB": 1.0, "kz": None,
               "ab_ratio": ab_ratio, "tail_eps": 1e-12}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            spec, _ = cli.make_spec(cfg)
            fit = gaussian_fit(expand(spec, cfg["tail_eps"]))
            scales = time_scales(fit.n0, spec.params)
        assert math.isfinite(fit.n0) and fit.n0 > 0.0
        assert all(math.isfinite(T) for T in (scales.T1, scales.T2, scales.T3))

    def test_separation_at_the_limit_runs(self, tmp_path):
        out = tmp_path / "spectral.csv"
        assert main(["spectral", "--a", repr(A_MAX), "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-12)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 4.0   # distance\nmass = 1.0\nsymmetry = S\n")
        out1 = tmp_path / "a4.json"
        out2 = tmp_path / "a6.json"
        assert main(["timescales", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["timescales", "--config", str(cfg), "--a", "6", "--out", str(out2)]) == EXIT_OK
        assert json.loads(out2.read_text())["n0"] > json.loads(out1.read_text())["n0"]

    def test_conflicting_kz_and_ratio(self):
        assert main(["survival", "--kz", "1.0", "--ab-ratio", "2.0"]) == EXIT_CONFIG

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("a == oops\n")
        assert main(["timescales", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["timescales", "--config", str(cfg)]) == EXIT_CONFIG

    def test_bad_eB(self):
        assert main(["spectral", "--eB", "-1"]) == EXIT_CONFIG

    def test_antisymmetric_zero_distance(self):
        assert main(["spectral", "--symmetry", "A", "--a", "0"]) == EXIT_CONFIG

    def test_symmetric_zero_distance_has_no_fit(self, capsys):
        assert main(["timescales", "--a", "0"]) == EXIT_CONFIG
        assert "nonpositive center" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["timescales", "survival"])
    def test_symmetric_small_a_names_the_limit(self, tmp_path, capsys, command):
        # below a ~ 5.3e-3 the S state's m = 2 weight falls under the fit's
        # 1e-10 threshold, so the mean level is 0 and no period exists
        out = tmp_path / "out"
        assert main([command, "--a", "0.004", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "a = 0.004, symmetry S" in err
        assert "only the m = 0 level" in err and "mean level is 0" in err
        assert not out.exists()

    def test_format_flag_only_on_density(self, tmp_path):
        out = tmp_path / "spectral.csv"
        with pytest.raises(SystemExit) as exc:
            main(["spectral", "--a", "3", "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_config_file_format_outside_the_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# grid\nformat = xml\n")
        out = tmp_path / "grid"
        assert main(["density", "--config", str(cfg), "--nt", "3", "--ns", "5",
                     "--tmax", "1", "--out", str(out)]) == EXIT_CONFIG
        assert f"{cfg}:2: bad value for format: 'xml'" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["spectral", "--a", "2", "--out", str(missing)]) == EXIT_IO


@pytest.mark.parametrize("argv, key", [
    (["density", "--tmax", "inf"], "tmax"),
    (["density", "--smax", "inf"], "smax"),
    (["survival", "--tmax", "inf"], "tmax"),
    (["observables", "--tmax", "inf"], "tmax"),
])
def test_non_finite_bound_is_config_error(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--a", "3", "--out", str(out)]) == EXIT_CONFIG
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["survival", "--samples", "5"],
    ["density", "--nt", "2", "--ns", "5"],
    ["density", "--nt", "2", "--ns", "5", "--format", "json"],
    ["observables", "--samples", "5"],
], ids=["survival", "density-csv", "density-json", "observables"])
def test_overflowing_window_phase_is_config_error(tmp_path, capsys, argv):
    # a finite --tmax whose phase 2 max E_n t overflows is refused before any
    # kernel runs: no overflow warning, no file
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--a", "3", "--tmax", "1e308", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "2 max E_n max(|t0|, |t1|) = inf leaves the double range at a = 3 " in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["survival", "--samples", "3"],
    ["density", "--nt", "3", "--ns", "5"],
    ["density", "--nt", "3", "--ns", "5", "--format", "json"],
    ["observables", "--samples", "3"],
], ids=["survival", "density-csv", "density-json", "observables"])
def test_window_whose_spacing_rounds_to_zero_is_config_error(tmp_path, capsys, argv):
    # 5e-324 / 2 rounds to 0, so three samples would repeat their times or write
    # times other than those their values were computed at
    out = tmp_path / "out"
    assert main(argv + ["--a", "5", "--tmax", "5e-324", "--out", str(out)]) == EXIT_CONFIG
    assert ("spacing (t1 - t0)/(samples - 1) = 4.94066e-324/2 rounds to 0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["survival", "--samples", "5"],
    ["observables", "--samples", "5"],
    ["density", "--nt", "5", "--ns", "3"],
], ids=["survival", "observables", "density-csv"])
def test_window_whose_times_would_repeat_is_config_error(tmp_path, capsys, argv):
    # dt = 1.1e-16 is half an ulp of t = 1: t0 + k*dt would write t = 1 twice,
    # each row with a value from a different time
    out = tmp_path / "out"
    assert main(argv + ["--a", "5", "--tmin", "1", "--tmax", "1.0000000000000004",
                        "--out", str(out)]) == EXIT_CONFIG
    assert ("spacing 1.11022e-16 is at most 4 ulp of max(|t0|, |t1|) = 1.0000000000000004"
            in capsys.readouterr().err)
    assert not out.exists()


def test_every_uniform_axis_is_x0_plus_k_dx(tmp_path):
    # over [0, 0.9] in 11 samples, dx = 0.09 and the last point is 10 * 0.09 =
    # 0.89999999999999991, not the bound 0.9: every command writes the time its
    # values were computed at, and the library axes are the one helper's bits
    from dirac_revivals.density import density_grid
    from dirac_revivals.evolution import _axis, survival_series

    last = "%.17g" % (0.0 + 10 * 0.09)
    assert last != "%.17g" % 0.9
    for argv in (["survival", "--samples", "11"], ["observables", "--samples", "11"],
                 ["density", "--nt", "11", "--ns", "3"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--a", "5", "--tmax", "0.9", "--out", str(out)]) == EXIT_OK
        header, *_, row = out.read_text().splitlines()[1:]
        assert row.split(",")[header.split(",").index("t")] == last, argv[0]
    exp = expand(CatSpec("S", 5.0, PhysicalParams()))
    series = survival_series(exp, 0.0, 0.9, 11)
    assert series.times.tobytes() == _axis(0.0, 0.9 / 10, 11).tobytes()
    grid = density_grid(exp, -1.0 / 3.0, 0.7, 7, 0.0, 0.9, 11)
    assert grid.s.tobytes() == _axis(-1.0 / 3.0, (0.7 + 1.0 / 3.0) / 6, 7).tobytes()
    assert grid.t.tobytes() == _axis(0.0, 0.9 / 10, 11).tobytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs an address-space limit that bounds every mapping")
@pytest.mark.parametrize("argv", [
    ["survival", "--a", "5", "--samples", "10000000000"],
    ["observables", "--a", "5", "--samples", "10000000000"],
    ["density", "--a", "5", "--smin=-1e10", "--smax", "1e10", "--nt", "2"],
], ids=["survival", "observables", "density"])
def test_oversized_grid_is_config_error(tmp_path, argv):
    # each grid asks for 74 GiB or more.  Only a child capped at 2 GiB of address
    # space runs it, so its allocation fails at once and nothing is touched: the
    # refusal is a configuration error naming the allocation, not a traceback
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 ** 31 if hard == resource.RLIM_INFINITY else min(2 ** 31, hard)
    src = os.path.dirname(os.path.dirname(dirac_revivals.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "dirac_revivals.cli", *argv, "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert re.fullmatch(r"error: Unable to allocate .+ for an array with shape .+\n", done.stderr)
    assert not out.exists()


def test_density_span_overflowing_the_nyquist_rule_is_config_error(tmp_path, capsys):
    # a finite s window whose span overflows, with the default ns: refused as an
    # explicit --ns refuses it, not by an OverflowError from the Nyquist count
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--a", "3", "--smin=-1e308", "--smax", "1e308", "--tmax", "1",
                     "--nt", "2", "--out", str(out)]) == EXIT_CONFIG
    assert ("grid bounds must be finite, with a finite span; got [-1e+308, 1e+308]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_config_file_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass = nan\n")
    assert main(["spectral", "--config", str(cfg)]) == EXIT_CONFIG
    assert "mass must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["survival", "--samples", "0"],
    ["observables", "--samples", "0"],
    ["density", "--nt", "0"],
    ["density", "--ns", "0"],
    ["density", "--ns", "1"],
    ["density", "--nt", "1"],
])
def test_zero_count_is_refused(tmp_path, capsys, argv):
    # 0 is a count, not "use the default"; the message names the key
    _, flag, count = argv
    out = tmp_path / "out"
    assert main(argv + ["--a", "3", "--tmax", "5", "--out", str(out)]) == EXIT_CONFIG
    assert f"{flag[2:]} = {count}: need at least 2 samples" in capsys.readouterr().err
    assert not out.exists()


class TestOptionTable:
    """build_parser, read_config_file and resolve_config all derive from cli._OPTIONS."""

    @staticmethod
    def sample(kind, default):
        """A value of the row's kind, different from its default, as text."""
        if isinstance(kind, tuple):
            return next(choice for choice in kind if choice != default)
        return {float: "0.375", int: "7", str: "data.out", bool: "true"}[kind]

    @pytest.mark.parametrize("key, kind, default, command", [
        (key, kind, default, command)
        for key, kind, default, commands, _ in cli._OPTIONS for command in commands
    ])
    def test_flag_and_config_file_agree(self, tmp_path, key, kind, default, command):
        text = self.sample(kind, default)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = {text}\n")
        parser = cli.build_parser()
        # a bool row is a bare flag
        flag = ["--" + key.replace("_", "-")] + ([] if kind is bool else [text])
        by_flag = cli.resolve_config(parser.parse_args([command, *flag]))
        by_file = cli.resolve_config(parser.parse_args([command, "--config", str(cfg_path)]))
        expected = True if kind is bool else text if isinstance(kind, tuple) else kind(text)
        assert by_flag[key] == by_file[key] == expected != default

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_exactly_the_rows(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^\s+(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        expected = ["--help", "--config"] + [
            "--" + key.replace("_", "-") for key, *_, commands, _ in cli._OPTIONS
            if command in commands]
        assert sorted(listed) == sorted(expected)
