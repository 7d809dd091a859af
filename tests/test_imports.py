"""What each entry point imports, the lazily loaded package names, which way
the package's modules import one another, and what the package source may
not use."""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opercalc

SRC = Path(__file__).resolve().parents[1] / "src"

# What `enumerate` and `strata` run; every process of the CLI imports these.
CLI_MODULES = ["opercalc", "opercalc.cli", "opercalc.core", "opercalc.enumeration",
               "opercalc.opers"]

PUBLIC_NAMES = [
    "BundleNumerics", "CurveParams", "ExpectedDimensions",
    "FiltrationProfile", "HNPolygon", "MaxDegreeCertificate", "MaximalityReport",
    "OperShape", "PosetDescription", "QuotCertificate", "QuotProblem", "core",
    "enumerate_admissible", "enumerate_admissible_slow", "enumeration",
    "expected_dimensions", "filtrations", "frobenius", "frobenius_oper_consistency", "hirschowitz_bound",
    "key_inequality_check", "max_score_brute_force", "max_score_closed_form",
    "maxdegree_certificate", "oper_polygon", "oper_quotient_degrees",
    "oper_space_dimensions", "oper_subbundle_slope_bound", "opers",
    "polygon_from_quotient_data", "profile_score", "pushforward_numerics",
    "quot_dim_lower_bound", "quot_nonempty", "rearrangement_check",
    "shatz_leq", "strata_poset", "sun_bound", "threshold_C", "verify_oper_maximality",
    "worst_case_subbundle_slope_bound",
]


# Standard modules no opercalc process needs: `dataclasses` imports `inspect`,
# which imports `ast`, `dis` and `tokenize`, about 9 ms of every start-up, and
# `argparse` with the `gettext` and `locale` it loads cost about as much.
UNNEEDED_MODULES = ["argparse", "dataclasses", "gettext", "inspect", "locale"]

# `fractions` and the `decimal` and `numbers` it imports: loaded only by the
# commands that compute a rational, never by `enumerate`, `strata` or the
# slow oracle.
FRACTION_MODULES = ["decimal", "fractions", "numbers"]

# Loaded only where JSON is written (``--format json``) or read (``dims --config``).
JSON_MODULES = ["json"]

WATCHED_MODULES = UNNEEDED_MODULES + FRACTION_MODULES + JSON_MODULES


def opercalc_modules_after(statements: str) -> list[str]:
    """The sorted ``opercalc`` entries of ``sys.modules``, and those of
    :data:`WATCHED_MODULES`, once ``statements`` have run in a fresh
    interpreter, with their stdout discarded.  The probe prints a repr, not
    JSON, so that it loads none of the watched modules itself."""
    script = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in statements.splitlines())
        + "print(sorted(m for m in sys.modules"
        " if m == 'opercalc' or m.startswith('opercalc.')"
        f" or m in {WATCHED_MODULES!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return ast.literal_eval(done.stdout)


class TestImportSet:
    @pytest.mark.parametrize("statements, extra", [
        ("import opercalc.cli", []),
        ("from opercalc import cli\n"
         "assert cli.run(['enumerate', '--rank', '3', '--genus', '2', '--verify',"
         " '--format', 'json']) == 0", JSON_MODULES),
        ("from opercalc import cli\n"
         "assert cli.run(['enumerate', '--rank', '3', '--genus', '2', '--format', 'csv'])"
         " == 0", []),
        # the JSON listing writes its text along the search, with no encoder
        ("from opercalc import cli\n"
         "assert cli.run(['enumerate', '--rank', '3', '--genus', '2', '--format', 'json'])"
         " == 0", []),
        ("from opercalc import cli\n"
         "assert cli.run(['enumerate', '--rank', '3', '--genus', '2']) == 0", []),
        ("from opercalc import cli\n"
         "assert cli.run(['strata', '--rank', '3', '--genus', '2']) == 0", []),
        ("from opercalc import cli\n"
         "assert cli.run(['strata', '--rank', '3', '--genus', '2', '--format', 'json']) == 0",
         JSON_MODULES),
        ("from opercalc import cli\n"
         "assert cli.run(['pushforward', '--rank', '2', '--degree', '1', '--genus', '2',"
         " '--char', '3']) == 0", ["opercalc.frobenius", *FRACTION_MODULES]),
        ("from opercalc import cli\n"
         "assert cli.run(['optimize', '--weight', '4', '--cap', '2']) == 0",
         ["opercalc.filtrations", *FRACTION_MODULES]),
        ("from opercalc import cli\n"
         "assert cli.run(['dims', '--rank', '3', '--genus', '2', '--format', 'csv']) == 0",
         ["opercalc.frobenius", *FRACTION_MODULES]),
        ("from opercalc import cli\n"
         "assert cli.run(['check-laws']) == 0",
         ["opercalc.filtrations", "opercalc.frobenius", "opercalc.laws", *FRACTION_MODULES]),
        ("from opercalc import cli\n"
         "assert cli.run(['enumerate', '--help']) == 0", []),
        ("from opercalc import cli\n"
         "assert cli.run(['enumerate', '--rank', 'x']) == 2", []),
    ], ids=["import", "enumerate-verify", "enumerate-csv", "enumerate-json",
            "enumerate-table", "strata", "strata-json", "pushforward", "optimize", "dims",
            "check-laws", "help", "usage-error"])
    def test_cli_imports_only_what_its_command_runs(self, statements, extra):
        assert opercalc_modules_after(statements) == sorted(CLI_MODULES + extra)

    def test_dims_config_loads_json_to_read_the_sweep(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text('{"rank": [2], "genus": [2]}')
        assert opercalc_modules_after(
            "from opercalc import cli\n"
            f"assert cli.run(['dims', '--config', {str(config)!r}]) == 0"
        ) == sorted(CLI_MODULES + ["opercalc.frobenius", *FRACTION_MODULES, *JSON_MODULES])

    def test_the_slow_oracle_cross_check_loads_no_fractions(self):
        # what perfbench/crosscheck.py runs, through the package attributes
        assert opercalc_modules_after(
            "import opercalc\n"
            "assert opercalc.enumerate_admissible_slow(4, 3)"
            " == opercalc.enumerate_admissible(4, 3)"
        ) == ["opercalc", "opercalc.core", "opercalc.enumeration", "opercalc.opers"]

    def test_package_import_loads_no_submodule(self):
        assert opercalc_modules_after("import opercalc") == ["opercalc"]

    def test_one_name_loads_only_its_module(self):
        assert opercalc_modules_after("from opercalc import HNPolygon") == [
            "opercalc", "opercalc.core"]
        # frobenius reads the canonical shape from opers, which every CLI process loads
        assert opercalc_modules_after("from opercalc import expected_dimensions") == [
            *FRACTION_MODULES, "opercalc", "opercalc.core", "opercalc.frobenius",
            "opercalc.opers"]


# The relative imports made inside a function body, as (importer, imported):
# each spares some command of the CLI a module that the command does not run.
IMPORTS_IN_FUNCTIONS = {("cli", "filtrations"), ("cli", "frobenius"), ("cli", "laws")}


def _relative_imports(tree: ast.AST, importer: str) -> tuple[set, set]:
    """The (importer, imported) pairs of the relative imports in ``tree``:
    all of them, and those made inside a function body."""
    edges: set[tuple[str, str]] = set()
    in_functions: set[tuple[str, str]] = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                edges.add((importer, name))
                if in_function:
                    in_functions.add((importer, name))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return edges, in_functions


def test_the_modules_import_one_way():
    """No module imports a sibling that imports it back, by any path, and a
    sibling is imported inside a function only where :data:`IMPORTS_IN_FUNCTIONS`
    says so."""
    edges: set[tuple[str, str]] = set()
    in_functions: set[tuple[str, str]] = set()
    for path in sorted((SRC / "opercalc").glob("*.py")):
        found, nested = _relative_imports(ast.parse(path.read_text(), str(path)), path.stem)
        edges |= found
        in_functions |= nested
    assert in_functions == IMPORTS_IN_FUNCTIONS
    graph: dict[str, set[str]] = {}
    for importer, imported in edges:
        graph.setdefault(importer, set()).add(imported)
    assert ("enumeration", "core") in edges  # the walk reads module-level imports too
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


class TestLazyExports:
    def test_public_names_are_unchanged(self):
        assert opercalc.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_defining_modules_object(self, name):
        value = getattr(opercalc, name)
        if name in {"core", "enumeration", "filtrations", "frobenius", "opers"}:
            assert value is sys.modules[f"opercalc.{name}"]
        else:
            assert value.__module__.startswith("opercalc.")
            assert value is getattr(sys.modules[value.__module__], name)

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(opercalc))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            opercalc.no_such_name

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from opercalc import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_the_source_uses_no_floating_point():
    """No float or complex literal and no call to ``float``, ``complex`` or
    ``round`` anywhere in the package: the arithmetic stays exact."""
    paths = sorted((SRC / "opercalc").glob("*.py"))
    assert paths
    faults = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                faults.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex", "round")):
                faults.append(f"{path.name}:{node.lineno}: call to {node.func.id}")
    assert faults == []


def test_one_function_words_every_lower_bound():
    """Every argument's lower bound is checked by ``core._require_at_least``,
    the one place that words the message."""
    sources = {path.name: path.read_text() for path in (SRC / "opercalc").glob("*.py")}
    assert {name: text.count("must be >= ") for name, text in sources.items()
            if "must be >= " in text} == {"core.py": 1}
    core = sources["core.py"]
    helper = core.index("def _require_at_least(")
    assert helper < core.index("must be >= ") < core.index("\ndef ", helper + 1)


# Public names that no module of the package and no benchmark script reads.
# Each states a claim of the paper: the maximal degree 0 of rank-r subbundles
# of the pushforward, and the oper subbundle slope bound.  Their law rows
# would change the output of `check-laws`, which `perfbench/expected.json`
# pins, so they wait for a change that records that file again.
UNREAD_PUBLIC_NAMES = {"maxdegree_certificate", "oper_subbundle_slope_bound"}


def _reads_outside_own_definition(tree: ast.AST) -> set[str]:
    """Names and attributes loaded in ``tree``, each counted only outside the
    ``def`` or ``class`` of the same name, so that recursion reads nothing."""
    reads: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in enclosing:
                reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return reads


def test_every_public_name_has_a_reader_outside_the_tests():
    """Each public name serves the CLI, a law, another public name or the
    benchmark, except the paper claims of :data:`UNREAD_PUBLIC_NAMES`."""
    paths = sorted((SRC / "opercalc").glob("*.py")) + sorted(
        (SRC.parent / "perfbench").glob("*.py"))
    assert len(paths) > 8
    reads = set().union(*(_reads_outside_own_definition(ast.parse(path.read_text(), str(path)))
                          for path in paths))
    assert set(opercalc.__all__) - opercalc._SUBMODULES - reads == UNREAD_PUBLIC_NAMES
