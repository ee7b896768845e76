"""Package surface: the lazy public names of ``pmlattice``, the value
contract of its records, and the one gate of its capped scans."""

import ast
import copy
import importlib
import json
import pickle
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import pmlattice
from pmlattice import cli, polytope
from pmlattice.basis import find_intersection_pair
from pmlattice.corpus import graph_to_file_dict
from pmlattice.errors import PreconditionViolated, VertexCapExceeded
from pmlattice.graph import Cut, MultiGraph, make_cut
from pmlattice.linalg import Lattice, hnf
from pmlattice.matchings import PerfectMatching
from pmlattice.polytope import Face
from pmlattice.verifier import verify_property

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


def _callers(name: str) -> list[str]:
    """``module.definition`` for every call of ``name`` in src, by the
    top-level definition it sits in, in file order."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return callers


def test_cap_check_has_one_caller():
    """``check_cap`` is called only by ``matchings.scan_table``, the one
    gate every capped scan passes."""
    assert _callers("check_cap") == ["matchings.scan_table"]


def test_rank_runs_only_where_a_dimension_is_reported_or_checked():
    """``members_dim`` is called only where a face dimension is reported
    (``_cut_face_class``, behind ``classify_cut``, ``classify_all_cuts`` and
    ``cuts classify``), where the separating-facet walk tests a face
    (``_facet_walk``, behind ``is_bvn``), or where a property checks one by
    rank; every other facet question reads ``facet_masks``."""
    assert set(_callers("members_dim")) == {
        "polytope._cut_face_class", "polytope._facet_walk", "verifier._p_brickcount",
        "verifier._p_nearbrick", "verifier._p_lemma_count"}


PATH18 = MultiGraph.from_pairs(18, [(i, i + 1) for i in range(17)])
C18 = MultiGraph.from_pairs(18, [(i, (i + 1) % 18) for i in range(18)])
PRISM9 = MultiGraph.from_pairs(18, [(i, (i + 1) % 9) for i in range(9)]
                               + [(9 + i, 9 + (i + 1) % 9) for i in range(9)]
                               + [(i, i + 9) for i in range(9)])  # a brick


def _cuts_tight(g: MultiGraph, tmp_path: Path, capsys) -> str:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_file_dict("g", g)))
    code = cli.main(["cuts", "tight", "--input", str(path)])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 2
    return result.get("reason", result["error"])


def _scan(fn):
    return lambda g, *_: fn(g)


CAPPED_SCANS = {
    **{name: _scan(getattr(polytope, name)) for name in (
        "separating_cuts", "separating_facet_defining_cuts", "facet_cuts", "classify_all_cuts",
        "enumerate_facets", "enumerate_codim2_faces", "is_bvn")},
    "ridges": _scan(lambda g: list(polytope.ridges(g))),
    "find_intersection_pair": _scan(find_intersection_pair),
    **{pid: _scan(lambda g, pid=pid: verify_property(g, pid).status)
       for pid in ("P-BARRIER", "P-FDILIFT", "P-TRIPLE")},
    "cuts tight": _cuts_tight,
}
# C18 is no near-brick, so these answer that before they reach the gate
NEAR_BRICK_DOMAIN = {"find_intersection_pair", "P-BARRIER", "P-FDILIFT"}


@pytest.mark.parametrize("entry", CAPPED_SCANS)
def test_every_capped_scan_checks_coverage_before_the_cap(entry, tmp_path, capsys):
    """A graph that is not matching-covered is refused as such, even above
    the cap; a matching-covered one above the cap raises VertexCapExceeded,
    is skipped by verify, or exits 2 with ``vertex_cap``."""

    def outcome(g):
        try:
            return CAPPED_SCANS[entry](g, tmp_path, capsys)
        except PreconditionViolated as exc:
            return exc.reason
        except VertexCapExceeded:
            return "vertex_cap"

    assert outcome(PATH18) == "not_matching_covered"
    over_cap = "skipped" if entry.startswith("P-") else "vertex_cap"
    for g in (PRISM9,) if entry in NEAR_BRICK_DOMAIN else (C18, PRISM9):
        assert outcome(g) == over_cap


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
