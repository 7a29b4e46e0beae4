"""The declared runtime dependencies are the ones this environment provides,
and the package ships the C source it compiles."""

import importlib
import re
from importlib import resources
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# distribution name -> import name, where they differ
IMPORT_NAMES = {"pyyaml": "yaml"}


def test_every_declared_dependency_imports():
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for dep in deps:
        dist = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
        importlib.import_module(IMPORT_NAMES.get(dist, dist))


def test_episode_loop_source_is_package_data():
    with open(PYPROJECT, "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["outageplan"]
    assert "_qloop.c" in package_data
    source = resources.files("outageplan").joinpath("_qloop.c")
    assert source.is_file()
    assert b"qlearn_episodes" in source.read_bytes()
