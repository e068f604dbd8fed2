"""The quadrature oracle and the analytic engine stay apart, read from the source with ast."""

import ast
import importlib
import os

import dirac_revivals

PACKAGE = os.path.dirname(dirac_revivals.__file__)
ENGINE = ("landau", "numerics", "catstate", "evolution", "observables", "density", "dataio")
# defined in oracle.py alone
ORACLE_NAMES = {"_trapezoid", "oracle_raw_overlaps", "expand_oracle", "_oracle_expansion",
                "matrix_elements", "check_table"}
# the engine's definitions of the basis and of Gamma: the oracle's only private reads
BASIS_AND_GAMMA = {"hermite_table", "_component_table", "_POPULATED", "_MATRICES"}
# the engine's walks and level tables, which the closed forms must not read
WALKS = {"_level_rows", "_profile_step", "_grid_rows", "_direct_rows", "_level_tables",
         "_coefficients"}


def _tree(module: str) -> ast.Module:
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _package_imports(node) -> list[str]:
    """What an import statement takes from the package: 'oracle', 'landau._POPULATED', ..."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [f"{node.module}.{a.name}" if node.module else a.name for a in node.names]
        if node.module.split(".")[0] == "dirac_revivals":
            return [f"{node.module}.{a.name}".partition(".")[2] for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.partition(".")[2] for a in node.names if a.name.startswith("dirac_revivals.")]
    return []


def _imports_oracle(node) -> bool:
    return any(name.split(".")[0] == "oracle" for name in _package_imports(node))


def _defined(tree: ast.Module) -> set:
    """Names a module binds at its top level: functions, classes and assignments."""
    names = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    return names | {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                    for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                    if isinstance(t, ast.Name)}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_engine_never_imports_the_oracle():
    for module in ENGINE:
        tree = _tree(module)
        assert not [n.lineno for n in ast.walk(tree) if _imports_oracle(n)], module
    others = [m[:-3] for m in os.listdir(PACKAGE) if m.endswith(".py") and m != "oracle.py"]
    for module in others:
        assert not _defined(_tree(module)) & ORACLE_NAMES, module
    assert ORACLE_NAMES <= _defined(_tree("oracle"))
    # the closed forms are regression targets of the engine, so they read none of its walks
    for module, name in (("density", "density_closed_form"), ("observables", "closed_form_series")):
        body = list(ast.walk(_function(_tree(module), name)))
        read = {getattr(n, "id", None) or getattr(n, "attr", None) for n in body}
        assert not read & WALKS, name


def test_oracle_reads_only_public_names_basis_and_gamma():
    for node in ast.walk(_tree("oracle")):
        for name in _package_imports(node):
            module, _, attr = name.partition(".")
            public = importlib.import_module(f"dirac_revivals.{module}").__all__ if attr else ()
            assert attr in public or attr in BASIS_AND_GAMMA, name
    # the CLI loads the oracle inside validate and nowhere else
    cli = _tree("cli")
    inside = set(map(id, ast.walk(_function(cli, "cmd_validate"))))
    loads = [n for n in ast.walk(cli) if _imports_oracle(n)]
    assert loads and all(id(n) in inside for n in loads)
