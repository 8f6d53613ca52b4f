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

    # in-process, collecting the test modules has imported every submodule,
    # so each of these runs in a fresh interpreter
    def test_a_fresh_interpreter_loads_each_submodule_on_access(self):
        assert run_fresh(FRESH_ACCESS) == (0, "ok\n", "")

    def test_the_relations_load_no_graph_module(self):
        assert run_fresh(RELATIONS_WITHOUT_GRAPH) == (0, "ok\n", "")


# (old module, name, new module) for each name that bench/replay.py imports
# from a module it has left, for from_structured, for MAX_SEGMENT_COLUMNS,
# and for the two-sentence API, which semantics forwards to pairs
MOVED = [
    ("semantics", "_pair", "pairs"),
    ("semantics", "Evidence", "pairs"),
    ("semantics", "classification_evidence", "pairs"),
    ("semantics", "classify", "pairs"),
    ("graph", "render_segment", "construction"),
    ("graph", "MAX_SEGMENT_COLUMNS", "construction"),
    ("graph", "to_structured", "document"),
    ("graph", "to_dot", "dot"),
    ("graph", "from_structured", "reader"),
    ("segment", "decode_graph", "construction"),
    ("segment", "extend_hexagon", "construction"),
    ("segment", "make_square_assignment", "construction"),
    ("segment", "verify_against", "construction"),
]


class TestMovedNames:
    @pytest.mark.parametrize("old,name,new", MOVED, ids=[name for _, name, _ in MOVED])
    def test_old_module_new_module_and_package_agree(self, old, name, new):
        moved = getattr(importlib.import_module(f"oppositions.{new}"), name)
        assert getattr(importlib.import_module(f"oppositions.{old}"), name) is moved
        if name in oppositions._EXPORTS:  # MAX_SEGMENT_COLUMNS is no export
            assert oppositions._EXPORTS[name] == new
            assert getattr(oppositions, name) is moved

    @pytest.mark.parametrize("module", ["graph", "segment", "semantics"])
    def test_unknown_name_raises_attribute_error_naming_the_module(self, module):
        old = importlib.import_module(f"oppositions.{module}")
        message = f"module 'oppositions.{module}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=message):
            old.no_such_name

    def test_importing_an_old_module_loads_no_new_one(self):
        assert run_fresh(OLD_MODULES_ALONE) == (0, "ok\n", "")


def run_fresh(script):
    """Exit code, stdout and stderr of ``script`` in a fresh interpreter."""
    src = str(Path(oppositions.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


FRESH_ACCESS = """\
import sys
import oppositions
assert "oppositions.segment" not in sys.modules, sorted(sys.modules)
for name in ["segment", *sorted(oppositions._SUBMODULES - {"segment"})]:
    assert getattr(oppositions, name) is sys.modules[f"oppositions.{name}"], name
print("ok")
"""

# the relations live in semantics, which produces them, so classifying a
# pair builds no graph and loads no graph module
RELATIONS_WITHOUT_GRAPH = """\
import sys
from oppositions import classify, Relation, RelationKind, CONTRADICTORY, subaltern
from oppositions import parse_sentence
from oppositions.semantics import Relation as defined
assert Relation is defined and classify(parse_sentence("A[P]"), parse_sentence("O[P]")) is CONTRADICTORY
assert subaltern("a", "b").kind is RelationKind.SUBALTERN
assert "oppositions.graph" not in sys.modules, sorted(sys.modules)
from oppositions import build_graph, parse_corpus
graph = build_graph(parse_corpus("A: A[P]\\nI: I[P]"))
assert all(type(relation) is defined for relation in graph.relations)
assert "oppositions.graph" in sys.modules
print("ok")
"""

# segment, graph and semantics forward a moved name only when it is asked for
OLD_MODULES_ALONE = """\
import sys
import oppositions.segment
import oppositions.graph
import oppositions.semantics
new = {
    "oppositions.construction", "oppositions.document", "oppositions.dot", "oppositions.pairs",
    "oppositions.reader",
}
assert not new & set(sys.modules), sorted(sys.modules)
print("ok")
"""
