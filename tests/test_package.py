"""Package surface: the lazy public names of ``pmlattice`` and the value
contract of its records."""

import ast
import copy
import importlib
import pickle
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import pmlattice
from pmlattice.graph import Cut, MultiGraph, make_cut
from pmlattice.linalg import Lattice, hnf
from pmlattice.matchings import PerfectMatching
from pmlattice.polytope import Face

SRC = Path(__file__).parents[1] / "src" / "pmlattice"


def test_every_export_resolves_to_its_module_object():
    names = pmlattice.__all__
    assert len(names) == len(set(names)) == 68
    for name in names:
        module = importlib.import_module(f"pmlattice.{pmlattice._MODULE_OF[name]}")
        obj = getattr(pmlattice, name)
        assert obj is getattr(module, name), name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from pmlattice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pmlattice.__all__)
    assert set(pmlattice.__all__) <= set(dir(pmlattice))
    assert "__version__" in dir(pmlattice)
    with pytest.raises(AttributeError):
        pmlattice.no_such_name
    with pytest.raises(ImportError):
        exec("from pmlattice import no_such_name", {})


def test_records_are_values():
    g = MultiGraph(3, ((0, 0, 1), (1, 1, 2)))
    same = MultiGraph(3, ((0, 0, 1), (1, 1, 2)))
    assert g == same and hash(g) == hash(same) == hash((3, ((0, 0, 1), (1, 1, 2))))
    assert g != MultiGraph(3, ((0, 0, 1),)) and g != (3, ((0, 0, 1), (1, 1, 2)))
    assert repr(g) == "MultiGraph(vertex_count=3, edges=((0, 0, 1), (1, 1, 2)))"
    lat = hnf([[2, 0], [0, 1]])
    assert lat == Lattice(2, ((2, 0), (0, 1))) and hash(lat) == hash(Lattice(2, ((2, 0), (0, 1))))
    assert lat != Lattice(2, ((1, 0), (0, 1)))
    assert repr(lat) == "Lattice(ambient_dim=2, basis=((2, 0), (0, 1)))"
    cut = make_cut(g, [0])
    assert cut == Cut((0,), frozenset({0})) and hash(cut) == hash(Cut((0,), frozenset({0})))
    m = PerfectMatching(frozenset({0, 2}))
    assert m == PerfectMatching(frozenset({2, 0})) and 2 in m and 1 not in m
    face = Face(0b101, 1)
    assert face == Face(5, 1, (), ()) and face.key() == (0, 2)
    for record, field in ((g, "edges"), (g, "vertex_count"), (lat, "basis"),
                          (cut, "shore"), (m, "edge_ids"), (face, "mask")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        g.extra = 1
    for record in (g, lat, cut, m, face):
        assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
        assert hash(copy.deepcopy(record)) == hash(record)


def test_caps_have_one_owner():
    """Every DEFAULT_*_CAP is assigned in errors only, beside the
    VertexCapExceeded it bounds; polytope, the verifier and the CLI import
    it from there."""
    owners = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                owners += [f"{path.stem}.{t.id}" for t in node.targets
                           if isinstance(t, ast.Name) and t.id.startswith("DEFAULT_")]
    assert sorted(owners) == ["errors.DEFAULT_TRIPLE_CAP", "errors.DEFAULT_VERTEX_CAP"]


def test_relative_imports_form_no_cycle():
    """The package's modules import one another in one direction: no cycle
    among the relative imports, whether at module level or inside a
    function.  ``from . import name`` reads the module ``name`` when there
    is one and ``__init__`` otherwise."""
    modules = {path.stem for path in SRC.glob("*.py")}
    deps: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        deps[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps[path.stem].add(node.module.split(".")[0])
                else:
                    deps[path.stem] |= {a.name if a.name in modules else "__init__"
                                        for a in node.names}
    assert deps["cli"] >= {"__init__", "polytope", "verifier"}
    try:
        TopologicalSorter(deps).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
