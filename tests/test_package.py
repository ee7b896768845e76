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
from pmlattice.basis import (Basis, IntersectionPair, LatticeCharacterization, MergeContext,
                             MergeResult, find_intersection_pair)
from pmlattice.corpus import graph_to_file_dict
from pmlattice.decomposition import DecompTree
from pmlattice.errors import PreconditionViolated, VertexCapExceeded
from pmlattice.graph import Cut, MultiGraph, Record, make_cut
from pmlattice.linalg import Lattice, hnf
from pmlattice.matchings import MatchingTable, PerfectMatching
from pmlattice.polytope import CutClass, Face, RankInfo, UncrossReport
from pmlattice.verifier import PropertyReport, verify_property

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


def test_graph_and_lattice_are_values():
    g = MultiGraph(3, ((0, 0, 1), (1, 1, 2)))
    same = MultiGraph(3, ((0, 0, 1), (1, 1, 2)))
    assert g == same and hash(g) == hash(same) == hash((3, ((0, 0, 1), (1, 1, 2))))
    assert g != MultiGraph(3, ((0, 0, 1),)) and g != (3, ((0, 0, 1), (1, 1, 2)))
    assert repr(g) == "MultiGraph(vertex_count=3, edges=((0, 0, 1), (1, 1, 2)))"
    lat = hnf([[2, 0], [0, 1]])
    assert lat == Lattice(2, ((2, 0), (0, 1))) and hash(lat) == hash(Lattice(2, ((2, 0), (0, 1))))
    assert lat != Lattice(2, ((1, 0), (0, 1)))
    assert repr(lat) == "Lattice(ambient_dim=2, basis=((2, 0), (0, 1)))"
    assert make_cut(g, [0]) == Cut((0,), frozenset({0}))
    m = PerfectMatching(frozenset({0, 2}))
    assert m == PerfectMatching(frozenset({2, 0})) and 2 in m and 1 not in m
    assert Face(0b101, 1).key() == (0, 2)
    for record, field in ((g, "edges"), (g, "vertex_count"), (lat, "basis")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        g.extra = 1
    for record in (g, lat):
        assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
        assert hash(copy.deepcopy(record)) == hash(record)


# Every record class, with values for its fields, its repr as the
# typing.NamedTuple it replaced printed it, and its defaults.  A record does
# not check its values, so ints and strings stand in for the larger fields.
RECORDS = [
    (Cut, ((0,), frozenset({0})), "Cut(shore=(0,), boundary=frozenset({0}))", ()),
    (RankInfo, (1, 2), "RankInfo(certified=1, fallbacks=2)", ()),
    (PerfectMatching, (frozenset({0, 2}),), "PerfectMatching(edge_ids=frozenset({0, 2}))", ()),
    (MatchingTable, ((4, 5), 1, (3,), (1, 2), (3, 3), (0, 1)),
     "MatchingTable(ids=(4, 5), edge_pos=1, masks=(3,), cols=(1, 2), stars=(3, 3), "
     "row_bits=(0, 1))", ()),
    (DecompTree, ("g", None, None, "brick"),
     "DecompTree(graph='g', cut=None, children=None, leaf_label='brick')", (None, None, None)),
    (Face, (5, 1, (0,), ()), "Face(mask=5, dim=1, exposed_by_edges=(0,), exposed_by_cuts=())",
     ((), ())),
    (CutClass, ("c", True, False, False, "f"),
     "CutClass(cut='c', is_tight=True, is_separating=False, is_facet_defining=False, face='f')",
     ()),
    (UncrossReport, (True, True, (), False),
     "UncrossReport(no_edge_between_differences=True, identity_holds=True, "
     "violating_matchings=(), face_intersection_equal=False)", ()),
    (Basis, ("g", (), "linear"), "Basis(graph='g', elements=(), kind='linear')", ()),
    (MergeContext, ("g", "c", "b1", "b2", (0,), ((1,),), ((2,),), ()),
     "MergeContext(graph='g', cut='c', b1='b1', b2='b2', cut_edges=(0,), i_orders=((1,),), "
     "j_orders=((2,),), elements=())", ()),
    (MergeResult, ("b", None, "ctx"), "MergeResult(basis='b', zstar=None, context='ctx')", ()),
    (IntersectionPair, ("m", "c"), "IntersectionPair(matching='m', cut='c')", ()),
    (LatticeCharacterization, (6, 4, 1, ((0,),), True, None, "L", "S"),
     "LatticeCharacterization(matching_count=6, rank=4, index=1, parity_sets=((0,),), "
     "equality_holds=True, two_x_in_lattice=None, lattice='L', saturation='S')", ()),
    (PropertyReport, ("P-DIM", "k4", "pass", 3),
     "PropertyReport(property_id='P-DIM', graph_name='k4', status='pass', certificate=3)", ()),
]


def test_every_record_class_is_listed():
    assert set(Record.__subclasses__()) == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, values, text, defaults", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_records_are_values(cls, values, text, defaults):
    """Records keep the typing.NamedTuple behaviour the package relies on:
    tuple equality and hash, the repr, keyword and default construction with
    TypeError on a bad call, immutability, copy and pickle, ``_fields`` and
    ``_asdict``."""
    record = cls(*values)
    assert type(record) is cls and record == values and hash(record) == hash(values)
    assert repr(record) == text
    fields = cls._fields
    assert len(fields) == len(values) and [getattr(record, f) for f in fields] == list(values)
    assert record._asdict() == dict(zip(fields, values))
    assert cls(**record._asdict()) == cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    required = len(values) - len(defaults)
    assert cls(*values[:required]) == values[:required] + defaults
    for args, kwargs in (
            (values[:required - 1], {}),                        # missing
            (values + (0,), {}),                                # extra
            (values, {"no_such_field": 0}),                     # unknown
            (values, {fields[0]: values[0]})):                  # given twice
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert not hasattr(record, "__dict__")
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)


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
