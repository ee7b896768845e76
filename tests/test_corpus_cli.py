import json

import pytest

from pmlattice.cli import main
from pmlattice.corpus import (CORPUS_NAMES, corpus_graph, dump_graph_file,
                              parse_graph_file, random_matching_covered)
from pmlattice.matchings import is_matching_covered


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


def test_cli_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(["pm", "count", "--input", str(bad)], capsys)
    assert code == 2
    assert json.loads(out)["status"] == "error"
    code, out = _run(["pm", "count"], capsys)  # missing --input
    assert code == 2


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
    code, _ = _run(["corpus", "emit"], capsys)
    assert code == 2


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
