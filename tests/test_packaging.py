"""The declared runtime dependencies are the ones this environment provides
and the package imports, and the package ships the C source it compiles."""

import ast
import importlib
import re
import subprocess
from importlib import resources
from pathlib import Path

import pytest

from outageplan import _kernels

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

# distribution name -> import name, where they differ
IMPORT_NAMES = {"pyyaml": "yaml"}


def runtime_import_names():
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for dep in deps:
        dist = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
        yield IMPORT_NAMES.get(dist, dist)


def test_every_declared_dependency_imports():
    for name in runtime_import_names():
        importlib.import_module(name)


def test_every_declared_dependency_is_imported_by_the_package():
    imported = set()
    for path in (ROOT / "src" / "outageplan").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    unused = [name for name in runtime_import_names() if name not in imported]
    assert not unused, f"runtime dependencies that src/outageplan never imports: {unused}"


def test_kernel_source_is_package_data():
    with open(PYPROJECT, "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["outageplan"]
    assert "_kernels.c" in package_data
    source = resources.files("outageplan").joinpath("_kernels.c")
    assert source.is_file()
    assert all(name in source.read_bytes() for name in (b"qlearn_episodes", b"dispatch_spans", b"greedy_rows", b"backward_period"))


@pytest.mark.parametrize("extra", [(), ("-U__SIZEOF_INT128__",)], ids=["native", "no-int128"])
def test_kernel_source_compiles_without_warnings(tmp_path, extra):
    # the package's flags plus every common warning as an error: catches
    # 128-bit and signedness slips in the C source before they build, also
    # in the multiply a compiler without a 128-bit integer type takes
    source = resources.files("outageplan").joinpath("_kernels.c").read_bytes()
    done = subprocess.run(
        [_kernels.COMPILER, *_kernels.CFLAGS, *extra, "-Wall", "-Wextra", "-Werror", "-x", "c", "-", "-lm",
         "-o", str(tmp_path / "kernels.so")],
        input=source, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")


def test_no_unused_module_imports():
    # a module-level import the module never uses misleads a reader about
    # what it depends on; names in __all__ and __future__ imports are exempt
    unused = []
    scanned = [*(ROOT / "src" / "outageplan").glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    for path in sorted(scanned):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused.extend(
                    f"{path.relative_to(ROOT)}: {name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in used
                )
    assert not unused, f"module-level imports never used: {unused}"
