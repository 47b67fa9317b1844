"""The production modules never reach the partition-sum oracle layer.

Every module of the package except ``partitions``, ``oracles``, ``verify``,
``cli`` and ``__init__`` is production and carries the analytic route.
The list is read from the package directory, so a module added or removed
is checked or dropped with it.  Every sum over partitions lives in ``oracles`` and is only
ever called by the tests and ``cfreeconv verify``, so within the package
only ``__init__`` and ``verify`` import it.  In turn ``oracles`` imports
none of the closed forms it checks.  Beyond the package, every module
imports the standard library alone: the package has no third-party runtime
dependency.  The checks read the sources, so an import hidden inside a
function counts too.  And only ``series`` reads the exact representation of a
series, its numerator lists and their denominator.
"""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfreeconv"
FORBIDDEN = {"partitions", "oracles"}
PRODUCTION = sorted(
    path.stem
    for path in PACKAGE.glob("*.py")
    if path.stem not in FORBIDDEN | {"verify", "cli", "__init__"}
)


def package_imports(tree):
    """The cfreeconv modules an AST imports anywhere, as bare module names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cfreeconv"):
                continue
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # "from . import x" or "from cfreeconv import x"
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cfreeconv" and len(parts) > 1:
                    found.add(parts[1])
    return found


def absolute_imports(tree):
    """The top-level package of every absolute import an AST makes anywhere."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


SERIES_DATA = {"_re", "_im", "_den"}


def series_data_reads(tree):
    """Line numbers where an AST reads or writes an attribute of the exact series data."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in SERIES_DATA)


def top_level_functions(path):
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_imports_no_oracles(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert package_imports(tree) & FORBIDDEN == set()


def test_oracles_import_no_closed_form():
    # The partition sums check the closed forms, so they must not reach them.
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    assert package_imports(tree) & {"transforms", "measures"} == set()


def test_only_init_and_verify_import_oracles():
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if "oracles" in package_imports(ast.parse(path.read_text()))
    }
    assert importers <= {"__init__", "verify"}


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_defines_no_oracle_route(module):
    shared = top_level_functions(PACKAGE / f"{module}.py") & top_level_functions(
        PACKAGE / "oracles.py"
    )
    assert shared == set()


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_module_imports_only_the_standard_library(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert absolute_imports(tree) - sys.stdlib_module_names - {"cfreeconv"} == set()


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "series"))
def test_only_series_reads_the_exact_series_data(module):
    # Other modules bring exact series over one denominator with
    # series._common_denominator and build them with TruncatedSeries._from_ints.
    assert series_data_reads(ast.parse((PACKAGE / f"{module}.py").read_text())) == []


def test_series_data_detector_sees_reads_and_writes():
    assert series_data_reads(ast.parse("d = f._den\nx = [g._re[k] for k in r]\ns._im = []")) == [1, 2, 3]


@pytest.mark.parametrize(
    "source",
    [
        "from .partitions import enumerate_nc",
        "def f():\n    from .oracles import boxed_convolution\n",
        "from . import partitions",
        "import cfreeconv.oracles",
        "from cfreeconv.partitions import kreweras",
        "from cfreeconv import oracles",
    ],
    ids=["relative", "in-function", "relative-module", "absolute", "absolute-from", "absolute-module"],
)
def test_import_detector_sees_every_form(source):
    assert package_imports(ast.parse(source)) & FORBIDDEN
