"""Lazily exporting packages keep an eager package's public surface."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).parents[1])

LAZY_PACKAGES = ["repro", "repro.core", "repro.edge", "repro.models",
                 "repro.assignment", "repro.profiling", "repro.obs"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_listed_and_resolves(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    assert len(set(package.__all__)) == len(package.__all__)
    for entry in package.__all__:
        assert getattr(package, entry) is getattr(package, entry)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_export", {})


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(namespace)
    assert all(namespace[entry] is getattr(package, entry)
               for entry in package.__all__)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_importing_the_package_imports_none_of_its_modules(name):
    """The point of the exercise, per package, in a fresh interpreter."""
    code = (f"import sys, {name}\n"
            f"print(sorted(m for m in sys.modules "
            f"if m.startswith({name!r} + '.') and m != 'repro._lazy'))")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.stdout.strip() == "[]"
