"""The package's export table: each public name resolves lazily to the
object its submodule defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oppositions


class TestExports:
    def test_each_export_is_its_submodules_object(self):
        for name, module in oppositions._EXPORTS.items():
            defined = getattr(importlib.import_module(f"oppositions.{module}"), name)
            assert getattr(oppositions, name) is defined, name

    def test_dir_and_all_list_every_export(self):
        assert sorted(oppositions.__all__) == sorted(oppositions._EXPORTS)
        assert set(oppositions._EXPORTS) <= set(dir(oppositions))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from oppositions import *", namespace)
        for name in oppositions._EXPORTS:
            assert namespace[name] is getattr(oppositions, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            oppositions.no_such_name
        with pytest.raises(ImportError):
            from oppositions import no_such_name  # noqa: F401

    def test_version_and_submodules(self):
        from oppositions import cli

        assert oppositions.__version__ == "0.1.0"
        assert cli is importlib.import_module("oppositions.cli")
        for module in ("formula", "parser", "graph", "semantics", "segment"):
            assert getattr(oppositions, module) is importlib.import_module(f"oppositions.{module}")
        assert oppositions.A_LOW is importlib.import_module("oppositions.segment").A_LOW

    def test_a_fresh_interpreter_loads_each_submodule_on_access(self):
        # in-process, collecting the test modules has imported every submodule
        src = str(Path(oppositions.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", FRESH_ACCESS], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


FRESH_ACCESS = """\
import sys
import oppositions
assert "oppositions.segment" not in sys.modules, sorted(sys.modules)
for name in ["segment", *sorted(oppositions._SUBMODULES - {"segment"})]:
    assert getattr(oppositions, name) is sys.modules[f"oppositions.{name}"], name
print("ok")
"""
