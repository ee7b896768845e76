import ast
import hashlib
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmlattice
from pmlattice import cli
from pmlattice.cli import main
from pmlattice.corpus import (CORPUS_NAMES, _load_json, corpus_graph, dump_graph_file,
                              graph_to_file_dict, parse_graph_file,
                              random_matching_covered, write_json)
from pmlattice.graph import MultiGraph
from pmlattice.matchings import is_matching_covered, matching_edge_ids

from conftest import build_parser


def test_corpus_names_and_coverage():
    assert len(CORPUS_NAMES) == 10
    for name in CORPUS_NAMES:
        g = corpus_graph(name)
        assert is_matching_covered(g)[0], name


def test_corpus_fixed_shapes():
    pete = corpus_graph("petersen")
    assert pete.vertex_count == 10 and len(pete.edges) == 15
    prism = corpus_graph("prism")
    pairs = [(u, v) for _, u, v in prism.edges]
    assert pairs[6:] == [(0, 3), (1, 4), (2, 5)]  # rungs are ids 6, 7, 8
    with pytest.raises(KeyError):
        corpus_graph("nope")


def test_graph_file_round_trip():
    for name in CORPUS_NAMES:
        g = corpus_graph(name)
        text = dump_graph_file(name, g)
        assert text == json.dumps(graph_to_file_dict(name, g), indent=2) + "\n"
        name2, g2 = parse_graph_file(text)
        assert name2 == name and g2 == g
        assert dump_graph_file(name2, g2) == text


def test_graph_file_validation():
    with pytest.raises(ValueError):
        parse_graph_file("[1, 2]")
    with pytest.raises(ValueError):
        parse_graph_file(json.dumps({"name": "x", "vertex_count": 2,
                                     "edges": [{"id": 1, "u": 0, "v": 1}]}))  # ids not 0..m-1
    with pytest.raises(ValueError):
        parse_graph_file(json.dumps({"name": "x", "vertex_count": 2,
                                     "edges": [{"id": 0, "u": 0, "v": 0}]}))  # loop
    with pytest.raises(ValueError):
        parse_graph_file(json.dumps({"name": "x", "vertex_count": 1,
                                     "edges": [{"id": 0, "u": 0, "v": 5}]}))  # range


def test_random_generator_deterministic():
    name1, g1 = random_matching_covered(7, 10)
    name2, g2 = random_matching_covered(7, 10)
    assert name1 == name2 and g1 == g2
    assert is_matching_covered(g1)[0]
    assert dump_graph_file(name1, g1) == dump_graph_file(name2, g2)
    _, other = random_matching_covered(8, 10)
    assert other != g1
    with pytest.raises(ValueError):
        random_matching_covered(1, 7)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_pm_count(tmp_path, capsys):
    path = tmp_path / "p.json"
    code, _ = _run(["corpus", "emit", "petersen", "--output", str(path)], capsys)
    assert code == 0
    code, out = _run(["pm", "count", "--input", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"count": 6}
    assert doc["status"] == "ok" and doc["graph"] == "petersen"
    assert doc["timing_ms"] is None


def test_cli_pm_count_agrees_with_pm_list(tmp_path, capsys):
    for name in CORPUS_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(dump_graph_file(name, corpus_graph(name)))
        code, counted = _run(["pm", "count", "--input", str(path)], capsys)
        assert code == 0
        code, listed = _run(["pm", "list", "--input", str(path)], capsys)
        assert code == 0
        listed = json.loads(listed)["result"]
        assert listed["count"] == len(listed["matchings"])
        assert json.loads(counted)["result"] == {"count": listed["count"]}, name


def test_cli_long_path_enumerates_without_recursion(tmp_path, capsys):
    # one perfect matching, 1,200 edges deep: deeper than Python's
    # default recursion limit
    n = 2400
    path = tmp_path / "path.json"
    path.write_text(dump_graph_file("path-2400", MultiGraph.from_pairs(
        n, [(i, i + 1) for i in range(n - 1)])))
    code, out = _run(["pm", "list", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["matchings"] == [list(range(0, n - 1, 2))]
    code = main(["bvn", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    result = json.loads(captured.out)["result"]
    assert result["error"] == "precondition" and result["reason"] == "not_matching_covered"


def test_cli_reports_byte_deterministic(tmp_path, capsys):
    path = tmp_path / "p.json"
    _run(["corpus", "emit", "prism", "--output", str(path)], capsys)
    _, out1 = _run(["cuts", "classify", "--input", str(path)], capsys)
    _, out2 = _run(["cuts", "classify", "--input", str(path)], capsys)
    assert out1 == out2


def test_cli_basis_lattice_petersen(tmp_path, capsys):
    path = tmp_path / "p.json"
    _run(["corpus", "emit", "petersen", "--output", str(path)], capsys)
    code, out = _run(["basis", "lattice", "--input", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["size"] == 6 and res["saturation_index"] == 2
    assert res["parity_sets"] == [[0, 1, 2, 3, 4]]
    assert res["verified"] is True


def test_cli_intersect_exit_codes(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    _run(["corpus", "emit", "k4", "--output", str(k4)], capsys)
    code, out = _run(["intersect", "--input", str(k4)], capsys)
    assert code == 2
    assert json.loads(out)["result"]["reason"] == "bvn"
    prism = tmp_path / "prism.json"
    _run(["corpus", "emit", "prism", "--output", str(prism)], capsys)
    code, out = _run(["intersect", "--input", str(prism)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["matching"] == [6, 7, 8]


def test_cli_verify(tmp_path, capsys):
    path = tmp_path / "prism.json"
    _run(["corpus", "emit", "prism", "--output", str(path)], capsys)
    code, out = _run(["verify", "all", "--input", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failures"] == 0
    assert len(doc["result"]["properties"]) == 12
    code, out = _run(["verify", "P-DIM", "--input", str(path)], capsys)
    assert code == 0 and len(json.loads(out)["result"]["properties"]) == 1


_MALFORMED_REPORT = """{
  "schema": "pmlattice-report/1",
  "tool": "pmlattice",
  "version": "0.1.0",
  "command": "pm count",
  "graph": null,
  "status": "error",
  "result": {
    "error": "JSONDecodeError",
    "message": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
  },
  "warnings": [],
  "timing_ms": null
}
"""


def test_cli_malformed_input(tmp_path, capsys):
    """A file that is not JSON is reported with json's own exception and
    message."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(["pm", "count", "--input", str(bad)], capsys)
    assert (code, out) == (2, _MALFORMED_REPORT)
    code, out = _run(["pm", "count"], capsys)  # missing --input
    assert code == 2


@pytest.mark.parametrize("text", ["{not json", '{"name": "x\x01"}', "[1,]", "\ufeff{}", "{} x"],
                         ids=["syntax", "control-character", "trailing-comma", "bom", "trailing-data"])
def test_cli_reads_graph_files_without_importing_json(tmp_path, capsys, text):
    """A CLI process that imports the commands' modules and reads a good
    GraphFile never imports ``json``; a malformed file brings it in, and is
    reported as in a process that had loaded it before reading (json's C
    scanner cannot raise its JSONDecodeError until ``json.decoder`` is
    loaded)."""
    good = tmp_path / "k4.json"
    good.write_text(dump_graph_file("k4", corpus_graph("k4")))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for path, loaded in ((good, False), (bad, True)):
        argv = ["pm", "count", "--input", str(path)]
        proc = _fresh_python("-c", "import sys; import pmlattice.cli, pmlattice.verifier; "
                                   "code = pmlattice.cli.main(sys.argv[1:]); "
                                   "print('json' in sys.modules, file=sys.stderr); sys.exit(code)",
                             *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            _in_process(argv, capsys)[:2] + (f"{loaded}\n",)
    if text == "{not json":
        assert proc.stdout == _MALFORMED_REPORT


@pytest.mark.parametrize("edge, message", [
    ({"id": 0, "u": 1, "v": 1}, "self-loop on vertex 1 (edge 0)"),
    ({"id": 0, "u": 0, "v": 2}, "edge 0 endpoint out of range"),
    ({"id": 0, "u": -1, "v": 1}, "edge 0 endpoint out of range"),
])
def test_cli_bad_edges_report_the_graph_message(tmp_path, capsys, edge, message):
    """A GraphFile edge that no graph can hold is rejected by ``MultiGraph``
    itself: exit 2 and its message, with no traceback."""
    path = tmp_path / "bad-edge.json"
    path.write_text(json.dumps({"name": "x", "vertex_count": 2, "edges": [edge]}))
    code = main(["pm", "count", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert json.loads(captured.out)["result"] == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("doc", [
    {"name": "x", "vertex_count": 2, "edges": [{"id": False, "u": 0, "v": True}]},
    {"name": "x", "vertex_count": 2, "edges": [{"id": 0, "u": False, "v": 1}]},
    {"name": "x", "vertex_count": True, "edges": []},
])
def test_graph_file_rejects_booleans(tmp_path, capsys, doc):
    text = json.dumps(doc)
    with pytest.raises(ValueError):
        parse_graph_file(text)
    path = tmp_path / "bool.json"
    path.write_text(text)
    code = main(["pm", "count", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["result"]["error"] == "ValueError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("inside_edges", [False, True])
def test_deeply_nested_graph_file_exits_2(tmp_path, capsys, inside_edges):
    """200,000 nested JSON arrays, alone or as "edges", nest past the
    parser's recursion limit: a bad GraphFile, so exit 2 with a structured
    error and nothing on stderr, in a fresh process as in process."""
    text = "[" * 200_000 + "]" * 200_000
    if inside_edges:
        text = f'{{"name": "x", "vertex_count": 2, "edges": {text}}}'
    with pytest.raises(ValueError):
        parse_graph_file(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = ["pm", "count", "--input", str(path)]
    proc = _fresh_python("-m", "pmlattice.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["result"] == {"error": "ValueError",
                                                 "message": "GraphFile nests too deeply"}


def test_cli_cap_exceeded(tmp_path, capsys):
    path = tmp_path / "big.json"
    _run(["corpus", "emit", "pete-k4-splice", "--output", str(path)], capsys)
    code, out = _run(["polytope", "facets", "--input", str(path),
                      "--max-vertices", "10"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["result"]["error"] == "vertex_cap" and doc["graph"] == "pete-k4-splice"
    # raising the cap adds a warning but succeeds
    code, out = _run(["bvn", "--input", str(path), "--max-vertices", "17"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"] and doc["result"]["bvn"] is False


def test_cli_corpus_commands(tmp_path, capsys):
    code, out = _run(["corpus", "list"], capsys)
    assert code == 0 and json.loads(out)["result"]["names"] == list(CORPUS_NAMES)
    code, out = _run(["corpus", "random", "--seed", "5", "--vertices", "8"], capsys)
    assert code == 0
    name, g = parse_graph_file(out)
    assert name == "random-v8-s5" and is_matching_covered(g)[0]
    code, out2 = _run(["corpus", "random", "--seed", "5", "--vertices", "8"], capsys)
    assert out2 == out
    code, out = _run(["corpus", "emit", "prism"], capsys)
    assert code == 0 and out == dump_graph_file("prism", corpus_graph("prism"))
    code, _ = _run(["corpus", "emit"], capsys)
    assert code == 2


def test_cli_corpus_random_rejects_bad_arguments(capsys, monkeypatch):
    def no_attempts(*args):
        raise AssertionError("generator ran on rejected arguments")

    monkeypatch.setattr("pmlattice.cli.random_matching_covered", no_attempts)
    code = main(["corpus", "random", "--seed", "5", "--vertices", "8", "--matchings", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    result = json.loads(captured.out)["result"]
    assert result["error"] == "precondition" and result["reason"] == "usage"
    code = main(["corpus", "random", "--seed", "5", "--vertices", "18"])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert json.loads(captured.out)["result"] == {"error": "vertex_cap", "vertices": 18, "cap": 16}


def test_cli_memory_error_exits_2_with_a_report(tmp_path, capsys, monkeypatch):
    """A scan that runs out of memory (K16's odd-shore faces need about
    4.1 GB) ends in a structured error report and exit 2, not a traceback."""
    from pmlattice import polytope

    def out_of_memory(g):
        raise MemoryError()

    path = tmp_path / "p.json"
    assert main(["corpus", "emit", "petersen", "--output", str(path)]) == 0
    monkeypatch.setattr(polytope, "shore_faces", out_of_memory)
    code = main(["cuts", "separating", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["status"] == "error" and doc["result"] == {"error": "MemoryError", "message": ""}


def test_cli_corpus_random_stops_drawing_at_the_complete_graph():
    """Draws past the complete graph add no edge, so ``corpus random`` with a
    huge --matchings ends as soon as every pair is an edge."""
    proc = _fresh_python("-m", "pmlattice.cli", "corpus", "random", "--seed", "1",
                         "--vertices", "16", "--matchings", "100000000", timeout=30)
    assert proc.returncode == 0, proc.stderr
    name, g = parse_graph_file(proc.stdout)
    assert name == "random-v16-s1" and len(g.edges) == 16 * 15 // 2


def test_cli_characterize(tmp_path, capsys):
    path = tmp_path / "pp.json"
    _run(["corpus", "emit", "petersen-parallel", "--output", str(path)], capsys)
    code, out = _run(["characterize", "--input", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["saturation_index"] == 2 and res["equality_holds"] is True
    assert res["two_x_in_lattice"] is True


def test_cli_timing_flag(tmp_path, capsys):
    path = tmp_path / "k4.json"
    _run(["corpus", "emit", "k4", "--output", str(path)], capsys)
    code, out = _run(["pm", "count", "--input", str(path), "--timing"], capsys)
    assert code == 0
    assert isinstance(json.loads(out)["timing_ms"], float)


def test_cli_timing_counts_the_write(tmp_path, capsys, monkeypatch):
    """``timing_ms`` is read when the writer reaches it, so it counts the
    matchings that ``pm list`` renders while writing (here slowed by 0.2 s)."""
    import time

    from pmlattice.matchings import MatchingIdLists

    real = MatchingIdLists.json_chunks

    def slow(self, pad):
        time.sleep(0.2)
        yield from real(self, pad)

    monkeypatch.setattr(MatchingIdLists, "json_chunks", slow)
    path = tmp_path / "k4.json"
    _run(["corpus", "emit", "k4", "--output", str(path)], capsys)
    code, out = _run(["pm", "list", "--input", str(path), "--timing"], capsys)
    assert code == 0
    assert json.loads(out)["timing_ms"] >= 200


GRAPH_COMMANDS = (
    ["pm", "count"], ["pm", "list"], ["polytope", "dim"], ["polytope", "facets"],
    ["polytope", "codim2"], ["cuts", "classify"], ["cuts", "tight"], ["cuts", "separating"],
    ["cuts", "facet"], ["decompose"], ["bvn"], ["intersect"], ["basis", "integral"],
    ["basis", "lattice"], ["characterize"], ["verify", "all"],
)


def _package_env() -> dict:
    """The environment with this package importable in a new interpreter."""
    src = str(Path(pmlattice.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh_python(*args: str, stdout=subprocess.PIPE,
                  timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``python3 *args`` in a new interpreter with this package importable."""
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=_package_env(), timeout=timeout)


def _in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``; stderr is always empty."""
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    assert captured.err == "", argv
    return code, captured.out, captured.err


def test_cli_fresh_process_matches_in_process(tmp_path, capsys):
    """Every graph command, a usage error, an unwritable --output and --help
    work in a new interpreter, where only the modules the command imports
    itself are loaded (this test session has loaded them all); the process,
    which ends through ``cli.run`` without interpreter finalization, prints
    the in-process report and exit code and nothing on stderr."""
    path = tmp_path / "k4.json"
    path.write_text(dump_graph_file("k4", corpus_graph("k4")))
    argvs = [command + ["--input", str(path)] for command in GRAPH_COMMANDS]
    argvs += [["pm", "frobnicate"], ["pm", "count", "--help"],
              ["pm", "count", "--input", str(path), "--output", str(tmp_path / "no" / "x.json")]]
    for argv in argvs:
        proc = _fresh_python("-m", "pmlattice.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys), argv


# a P-DIM check that fails: every catalog property is a theorem, so no
# GraphFile reaches exit 1 through ``verify`` or a falsified claim
_FAILING_CHECK = "lambda g, cap: ('fail', {'forced': True})"


def test_cli_process_ends_after_its_whole_report(tmp_path, capsys, monkeypatch):
    """A process that ends through ``cli.run`` has written all of a report
    of many blocks, to stdout or to a complete --output file, and ends with
    exit 1 when a property fails."""
    k12 = str(_complete_graph_file(tmp_path, 12))
    argv = ["pm", "list", "--input", k12]
    proc = _fresh_python("-m", "pmlattice.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    assert len(proc.stdout) > 8 * cli.BLOCK
    proc = _fresh_python("-m", "pmlattice.cli", *argv, "--output", str(tmp_path / "out.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "out.json").read_text() == _in_process(argv, capsys)[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["K12.json", "out.json"]
    argv = ["verify", "P-DIM", "--input", k12]
    proc = _fresh_python("-c", "from pmlattice import cli, verifier; "
                               f"verifier._CHECKS['P-DIM'] = {_FAILING_CHECK}; cli.run()", *argv)
    from pmlattice import verifier
    monkeypatch.setitem(verifier._CHECKS, "P-DIM", eval(_FAILING_CHECK))
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    assert proc.returncode == 1


def test_cli_run_exit_paths():
    """The module run as ``__main__`` (as ``python -m`` runs it) ends
    through ``run``, which skips ``atexit`` handlers, turns a final flush
    that fails into exit 2 with nothing on stderr, and lets an exception
    from ``main`` end the process with its traceback and exit 1."""
    proc = _fresh_python("-c", "import atexit, runpy; atexit.register(print, 'atexit ran'); "
                               "runpy.run_module('pmlattice.cli', run_name='__main__')",
                         "corpus", "list")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["names"] == list(CORPUS_NAMES)
    with open(os.devnull, "w") as devnull, open("/dev/full", "w") as full:
        for out in (devnull, full):
            # a buffered stdout holds the 'x' until the final flush
            proc = _fresh_python("-c", "import sys; from pmlattice import cli; "
                                       "sys.stdout = open(1, 'w', closefd=False); "
                                       "cli.main = lambda: sys.stdout.write('x') - 1; cli.run()",
                                 stdout=out)
            assert (proc.returncode, proc.stderr) == ((0, "") if out is devnull else (2, ""))
    proc = _fresh_python("-c", "from pmlattice import cli; cli.main = lambda: 1 / 0; cli.run()")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("Traceback") and "ZeroDivisionError" in proc.stderr


def test_console_script_runs_cli_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"pmlattice": "pmlattice.cli:run"}
    assert callable(cli.run)


_VALID_ARGV = [
    *[[command, action, "--input", "g.json"] for command, actions in (
        ("pm", ("list", "count")), ("polytope", ("dim", "facets", "codim2")),
        ("cuts", ("classify", "tight", "separating", "facet")),
        ("basis", ("integral", "lattice"))) for action in actions],
    *[[command, "--input=g.json"] for command in ("decompose", "bvn", "intersect",
                                                  "characterize", "verify")],
    ["pm", "--input", "g.json", "count"],
    ["pm", "count", "--max-vertices", "20", "--seed=-3", "--timing", "--output", "o.json"],
    ["cuts", "--max-vertices=18", "tight", "--input", "-", "--seed", "7"],
    ["bvn", "--seed", "1", "--seed", "2", "--input", "a", "--input=b"],
    ["decompose", "--input", "-1", "--output=-x", "--seed", "+5"],
    ["polytope", "dim", "--input", "a b", "--input", "-a b"],
    ["verify", "P-DIM", "--input", "g.json"],
    ["verify", "--input", "g.json", "all", "--triple-cap", "8"],
    ["verify", "--property", "P-2X", "--triple-cap=12", "--input", "g.json"],
    ["verify", "--property=P-DIM", "P-LEMMA"],
    ["corpus", "list"],
    ["corpus", "emit", "prism"],
    ["corpus", "emit", "prism", "--output", "p.json"],
    ["corpus", "--seed", "5", "random", "--vertices", "8", "--matchings", "-1"],
    ["corpus", "random", "--vertices=10", "--seed=4", "--matchings=2", "--max-vertices", "20"],
    ["pm", "--", "count"],
    ["verify", "--input", "g", "--", "-P"],
]

_INVALID_ARGV = [
    [], ["bogus"], ["--input", "g.json", "pm", "count"], ["pm"], ["pm", "bogus"],
    ["pm", "count", "extra"], ["pm", "count", "--bogus"], ["pm", "count", "--max-v", "20"],
    ["pm", "count", "--inp=g.json"], ["pm", "count", "--seed"], ["pm", "count", "--seed", "x"],
    ["pm", "count", "--seed=x"], ["pm", "count", "--max-vertices", "1.5"],
    ["pm", "count", "--timing=1"], ["pm", "count", "--input", "--timing"],
    ["pm", "count", "--input", "-x"], ["pm", "-x", "count"],
    ["corpus", "emit", "--output", "o.json", "prism"], ["verify", "a", "b"],
    ["decompose", "x"], ["polytope", "--input", "g.json"], ["verify", "--triple-cap"],
    ["pm", "count", "--", "--input"], ["corpus", "bogus", "prism"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=" ".join)
def test_cli_parser_matches_the_argparse_grammar(argv):
    assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", _INVALID_ARGV, ids=" ".join)
def test_cli_usage_errors_exit_2_with_a_report(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(argv)
    assert raised.value.code == 2
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    report = json.loads(captured.out)
    assert report["status"] == "error" and report["graph"] is None
    assert {k: report["result"][k] for k in ("error", "reason")} == \
        {"error": "precondition", "reason": "usage"}


def test_cli_help_exits_0(capsys):
    for argv, heading in ((["-h"], "usage: pmlattice [-h]"), (["pm", "count", "--help"],
                                                               "usage: pmlattice pm [-h]")):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        captured = capsys.readouterr()
        assert raised.value.code == 0 and captured.out.startswith(heading) and not captured.err


def test_cli_import_loads_no_unused_module():
    """``import pmlattice`` loads no submodule, and ``import pmlattice.cli``
    loads none of the modules that only some commands use, counted against
    what the interpreter loads before the first import."""
    proc = _fresh_python("-c", "import sys; base = set(sys.modules); import pmlattice; "
                               "pkg = set(sys.modules); import pmlattice.cli; "
                               "print(sorted(pkg - base)); print(sorted(set(sys.modules) - base))")
    assert proc.returncode == 0, proc.stderr
    after_package, after_cli = map(ast.literal_eval, proc.stdout.splitlines())
    assert [m for m in after_package if m.startswith("pmlattice.")] == []
    assert "pmlattice.cli" in after_cli
    unused = {"argparse", "gettext", "locale", "dataclasses", "inspect", "fractions",
              "pmlattice.basis", "pmlattice.decomposition", "pmlattice.linalg",
              "pmlattice.polytope", "pmlattice.verifier"}
    assert unused & set(after_cli) == set()


def test_cli_commands_without_coefficients_load_no_fractions(tmp_path):
    """Only ``merge_coefficients`` needs ``fractions`` (which imports
    ``decimal``); the lattice and basis commands run without it."""
    path = tmp_path / "k4.json"
    path.write_text(dump_graph_file("k4", corpus_graph("k4")))
    for command in (["intersect"], ["basis", "integral"], ["characterize"]):
        proc = _fresh_python("-c", "import sys; from pmlattice.cli import main; "
                                   "code = main(sys.argv[1:]); "
                                   "print(sorted({'fractions', 'decimal'} & set(sys.modules)), "
                                   "file=sys.stderr); sys.exit(code)",
                             *command, "--input", str(path))
        assert proc.stderr == "[]\n", (command, proc.stderr)


def test_cli_decompose_and_tight_cuts_load_no_polytope(tmp_path):
    """``decompose`` and ``cuts tight`` read the tight-cut decomposition
    alone: a fresh process running either loads no ``pmlattice.polytope``."""
    path = tmp_path / "splice.json"
    path.write_text(dump_graph_file("pete-k4-splice", corpus_graph("pete-k4-splice")))
    for command in (["decompose"], ["cuts", "tight"]):
        proc = _fresh_python("-c", "import sys; from pmlattice.cli import main; "
                                   "code = main(sys.argv[1:]); "
                                   "print('pmlattice.polytope' in sys.modules, file=sys.stderr); "
                                   "sys.exit(code)",
                             *command, "--input", str(path))
        assert (proc.returncode, proc.stderr) == (0, "False\n"), (command, proc.stderr)


def test_cli_verify_help_reads_the_triple_cap(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--triple-cap TRIPLE_CAP vertex cap for the nested-triple exhaustion (default 10)" in text


def _written(doc) -> str:
    chunks: list[str] = []
    write_json(doc, chunks.append)
    return "".join(chunks)


def _as_iterators(doc):
    """``doc`` with every list replaced by an iterator over its items."""
    if isinstance(doc, dict):
        return {k: _as_iterators(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return iter([_as_iterators(v) for v in doc])
    return doc


_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
            | st.floats() | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
            | st.text() | st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "\u00e9\u6f22\U0001f600\u2028"]))
_DOCS = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)
                      | st.lists(st.integers(), max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_report_writer_matches_json_dumps(doc):
    expected = json.dumps(doc, indent=2)
    assert _written(doc) == expected
    assert _written(_as_iterators(doc)) == expected


def _read_as(read, text: str):
    """What ``read(text)`` returns, by type and repr (NaN is not equal to
    itself), or the type and message of what it raises."""
    try:
        value = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


_SPACE = st.text(" \t\n\r", max_size=3)
_EDGE = st.fixed_dictionaries({"id": st.integers(-1, 9), "u": st.integers(-1, 9),
                               "v": st.integers(-1, 9) | _SCALARS})
_GRAPH_DOCS = st.fixed_dictionaries(
    {"name": st.text() | _SCALARS, "vertex_count": st.integers(-1, 12) | _SCALARS,
     "edges": st.lists(_EDGE, max_size=5) | _DOCS},
    optional={"extra": _DOCS})


@settings(max_examples=300, deadline=None)
@given(_GRAPH_DOCS, _SPACE, _SPACE, st.tuples(_SPACE, _SPACE, _SPACE, _SPACE),
       st.none() | st.integers(0, 3) | _SPACE, st.data())
def test_reader_matches_json_loads(doc, lead, trail, spaces, indent, data):
    """``corpus._load_json`` reads what ``json.loads`` reads, the same way,
    on ``json.dumps`` of GraphFile-shaped documents in any JSON whitespace,
    and on each such text truncated, with one character replaced, and with
    one inserted."""
    item, key = spaces[0] + "," + spaces[1], spaces[2] + ":" + spaces[3]
    text = lead + json.dumps(doc, indent=indent, separators=(item, key)) + trail
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from('{}[]",:-.0eE\\ \t\f\v\ufeffnNI') | st.characters())
    for variant in (text, text[:at], text[:at] + char + text[at + 1:], text[:at] + char + text[at:]):
        assert _read_as(_load_json, variant) == _read_as(json.loads, variant), variant


_LONG_INT = "1" * (sys.get_int_max_str_digits() + 1)


_FIXED_TEXTS = {
    "bom": '\ufeff{"name": "x"}',
    "trailing-object": '{"name": "x"} {}',
    "trailing-bracket": '{"name": "x"}\n]',
    "form-feed-before": "\f{}",
    "vertical-tab-after": "{}\v",
    "form-feed-inside": '{"a":\f1}',
    "vertical-tab-inside": '{"a": 1,\v"b": 2}',
    "only-whitespace": " \t\n\r",
    "empty": "",
    "bare-word": "nul",
    "single-quotes": "'x'",
    "missing-colon": '{"a" 1}',
    "trailing-comma": "[1,]",
    "control-character": '{"a": "\x01"}',
    "constants": "[NaN, Infinity, -Infinity, -0.0, 1e400, -nan]",
    "long-int-field": '{"vertex_count": ' + _LONG_INT + "}",
    "long-negative-int": "-" + _LONG_INT,
    "lone-high-surrogate": '"\\ud800"',
    "lone-low-surrogate": '{"name": "\\udc00x"}',
    "duplicate-keys": '{"id": 1, "id": 2}',
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "graph-file-in-whitespace":
        ' \r\n{"name": "k", "vertex_count": 2, "edges": [{"id": 0, "u": 0, "v": 1}]}\n\t',
}


@pytest.mark.parametrize("text", _FIXED_TEXTS.values(), ids=_FIXED_TEXTS.keys())
def test_reader_matches_json_loads_on_fixed_texts(text):
    assert _read_as(_load_json, text) == _read_as(json.loads, text)


def _id_lists(obj) -> list:
    """A streamed value as a list: ``pm list``'s matchings as the lists of
    ``matching_edge_ids``, and a generator of faces as what it yields."""
    return list(matching_edge_ids(obj.graph)) if hasattr(obj, "graph") else list(obj)


def test_every_report_equals_json_dumps_of_its_result(tmp_path, capsys):
    """Each graph command on each corpus graph writes the bytes that
    ``json.dumps(report, indent=2)`` gives for the report it computed,
    with its streamed values (``pm list``'s matchings, the faces of
    ``polytope facets`` and ``codim2``) as lists."""
    for name in CORPUS_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(dump_graph_file(name, corpus_graph(name)))
        for command in GRAPH_COMMANDS:
            argv = command + ["--input", str(path)]
            code, out = _run(argv, capsys)
            report, want_code = cli._run(cli.parse_args(argv))
            assert (code, out) == (want_code, json.dumps(report, indent=2, default=_id_lists) + "\n"), \
                (name, command)


def _complete_graph_file(tmp_path, n: int) -> Path:
    path = tmp_path / f"K{n}.json"
    path.write_text(dump_graph_file(f"K{n}", MultiGraph.from_pairs(
        n, list(itertools.combinations(range(n), 2)))))
    return path


def test_cli_output_errors_exit_2(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    k4.write_text(dump_graph_file("k4", corpus_graph("k4")))
    target = tmp_path / "missing" / "x.json"
    code = main(["pm", "count", "--input", str(k4), "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out)["result"]["error"] == "FileNotFoundError"
    # a write that fails partway (a 4 KB file-size limit against K12's
    # report) leaves neither the output nor its temp file behind
    target = tmp_path / "k12.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pmlattice.cli", "pm", "list",
         "--input", str(_complete_graph_file(tmp_path, 12)), "--output", str(target)],
        capture_output=True, text=True, env=_package_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)))
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["result"]["error"] == "OSError"
    assert not target.exists() and not Path(str(target) + ".tmp").exists()
    # a full stdout gets no second report after the part already written
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "pmlattice.cli", "pm", "list",
             "--input", str(_complete_graph_file(tmp_path, 12))],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_package_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_cli_closed_stdout_exits_2_quietly(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "pmlattice.cli", "pm", "list",
         "--input", str(_complete_graph_file(tmp_path, 12))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env())
    try:
        assert proc.stdout.read(200)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (2, b"")


def test_pm_list_streams_in_little_memory(tmp_path):
    """K12's 10,395 matchings are written without a list of them: the
    traced peak stays under 3 MB (it was 15 MB with materialised reports)."""
    path = _complete_graph_file(tmp_path, 12)
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = main(["pm", "list", "--input", str(path), "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out.read_text())["result"]["count"] == 10395
    assert peak < 3 * 2**20


def test_polytope_facets_streams_in_little_memory(tmp_path, monkeypatch):
    """From a warm memo, K12's ``polytope facets`` report (1,078 facets,
    40 MB of text) is written one facet at a time into a sink: the traced
    peak stays under 16 MiB (86.9 MiB while every member list was built
    before the write)."""
    from pmlattice.polytope import enumerate_facets, polytope_dim

    path = _complete_graph_file(tmp_path, 12)
    g = parse_graph_file(path.read_text())[1]
    enumerate_facets(g)  # the memo is warm, so the trace covers the report
    polytope_dim(g)

    class Sink:
        written = 0

        def write(self, text: str) -> int:
            self.written += len(text)
            return len(text)

        def flush(self) -> None:
            pass

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["polytope", "facets", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.written) == (0, 39999045)
    assert peak < 16 * 2**20


def test_reports_match_pinned_hashes(tmp_path, capsys):
    """Every graph command on every corpus graph and on random-v12-s8
    (``corpus random --seed 8 --vertices 12``) writes the report bytes and
    exit code pinned in ``report_pins.json``."""
    pins = json.loads((Path(__file__).parent / "report_pins.json").read_text())
    paths = {name: tmp_path / f"{name}.json" for name in (*CORPUS_NAMES, "random-v12-s8")}
    for name in CORPUS_NAMES:
        assert main(["corpus", "emit", name, "--output", str(paths[name])]) == 0
    assert main(["corpus", "random", "--seed", "8", "--vertices", "12",
                 "--output", str(paths["random-v12-s8"])]) == 0
    got = {}
    for name, path in paths.items():
        for command in GRAPH_COMMANDS:
            code = main(command + ["--input", str(path)])
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            got[" ".join((name, *command))] = {"exit": code, "sha256": digest}
    assert got == pins
