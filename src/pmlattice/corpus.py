"""Bundled corpus graphs, the seeded random generator, GraphFile JSON, and
the streaming JSON writer that GraphFiles and CLI reports share.

Edge ids are load-bearing (vectors are indexed by id and survive
contraction), so the file format spells out one edge object per parallel
edge instead of an adjacency shorthand.

JSON is read and written through ``_json``, the C module behind ``json``:
importing ``json`` compiles regular expressions that only its pure-Python
fallbacks use, so it is imported only to report a text that is not JSON.
"""

from __future__ import annotations

import random
from _json import encode_basestring_ascii, make_scanner
from collections.abc import Iterator

from .graph import PETERSEN_PAIRS, MultiGraph
from .matchings import matching_covered

Pairs = tuple[tuple[int, int], ...]

_PRISM: Pairs = (
    (0, 1), (0, 2), (1, 2),          # triangle 0-1-2
    (3, 4), (3, 5), (4, 5),          # triangle 3-4-5
    (0, 3), (1, 4), (2, 5),          # rungs
)

# Petersen minus vertex 0, survivors renumbered v -> v-1 (12 edges).
# Vertex 0's old neighbours 1, 4, 5 become 0, 3, 4 below.
_PETERSEN_MINUS_VERTEX: Pairs = (
    (0, 1), (1, 2), (2, 3),
    (0, 5), (1, 6), (2, 7), (3, 8),
    (4, 6), (6, 8), (5, 8), (5, 7), (4, 7),
)

# Splice of the Petersen graph with a C4 that carries one doubled edge,
# joined across a degree-3 vertex of each.  Two of the three join edges
# share vertex 9, so no perfect matching can cross the join cut three
# times; parity makes the cut tight and the Petersen side survives as a
# Petersen brick leaf next to a single brace.
_PETE_C4_SPLICE: Pairs = _PETERSEN_MINUS_VERTEX + (
    (0, 9), (3, 9), (4, 11),          # join edges (old Petersen spokes at 0)
    (9, 10), (10, 11),                # rest of the C4 on {9, 10, 11, joined}
)

# Petersen and K4 joined through an independent two-vertex buffer {9, 10}.
# Only 9 and 10 see both sides, so a perfect matching can cross either
# join cut at most twice, and parity of the odd shores forces exactly
# once: both join cuts are tight by construction.  The decomposition
# yields a Petersen brick (one spoke doubled by the contraction), a
# K4 brick, and one brace, so b = 2.  A direct vertex splice of two
# bricks would NOT give a tight join cut, which is why the buffer exists.
_PETE_K4_SPLICE: Pairs = _PETERSEN_MINUS_VERTEX + (
    (0, 9), (3, 9), (4, 9),           # Petersen side to buffer vertex 9
    (0, 10),                          # Petersen side to buffer vertex 10
    (9, 11),                          # buffer vertex 9 to the K4 side
    (10, 11), (10, 12), (10, 13),     # buffer vertex 10 to K4 side
    (11, 12), (11, 13), (12, 13),     # K4 minus a vertex: triangle
)

_NAMED: dict[str, tuple[int, Pairs]] = {
    "k4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "c6": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),
    "k33": (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
    "cube": (8, ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7),
                 (4, 5), (4, 6), (5, 7), (6, 7))),
    "prism": (6, _PRISM),
    "double-prism": (6, _PRISM + ((0, 3), (1, 4), (2, 5))),
    "petersen": (10, PETERSEN_PAIRS),
    "petersen-parallel": (10, PETERSEN_PAIRS + ((0, 1),)),
    "pete-c4-splice": (12, _PETE_C4_SPLICE),
    "pete-k4-splice": (14, _PETE_K4_SPLICE),
}

CORPUS_NAMES: tuple[str, ...] = tuple(_NAMED)


def corpus_graph(name: str) -> MultiGraph:
    if name not in _NAMED:
        raise KeyError(f"unknown corpus graph {name!r}")
    n, pairs = _NAMED[name]
    return MultiGraph.from_pairs(n, pairs)


def random_matching_covered(seed: int, vertices: int, extra_matchings: int = 3) -> tuple[str, MultiGraph]:
    """Seed-determined random matching-covered graph.

    Starts from a random perfect matching on the vertex set, unions
    ``extra_matchings`` further random perfect matchings (as a simple edge
    set), and keeps the result iff it is matching-covered; failed attempts
    reseed deterministically.  Drawing stops at the complete graph: later
    draws add no edge, and it is matching-covered, so no retry follows.
    """
    if vertices < 2 or vertices % 2:
        raise ValueError("vertex count must be even and at least 2")
    rng = random.Random(seed)
    complete = vertices * (vertices - 1) // 2
    for _ in range(1000):
        pairs: set[tuple[int, int]] = set()
        for _ in range(extra_matchings + 1):
            perm = list(range(vertices))
            rng.shuffle(perm)
            for i in range(0, vertices, 2):
                u, v = perm[i], perm[i + 1]
                pairs.add((u, v) if u < v else (v, u))
            if len(pairs) == complete:
                break
        g = MultiGraph.from_pairs(vertices, tuple(sorted(pairs)))
        if matching_covered(g):
            return f"random-v{vertices}-s{seed}", g
    raise ValueError(f"no matching-covered graph found for seed {seed} after 1000 attempts")


# --- GraphFile JSON --------------------------------------------------------


def graph_to_file_dict(name: str, g: MultiGraph) -> dict:
    ids = sorted(e[0] for e in g.edges)
    if ids != list(range(len(g.edges))):
        raise ValueError("GraphFile requires edge ids 0..m-1")
    return {
        "name": name,
        "vertex_count": g.vertex_count,
        "edges": [{"id": eid, "u": u, "v": v} for eid, u, v in sorted(g.edges)],
    }


def dump_graph_file(name: str, g: MultiGraph) -> str:
    chunks: list[str] = []
    write_json(graph_to_file_dict(name, g), chunks.append)
    return "".join(chunks) + "\n"


def _scalar(obj) -> str:
    """JSON text of None, a bool, an int or a float, as ``json.dumps`` writes it."""
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # non-finite as json.dumps spells them; no report has one today
        text = float.__repr__(obj)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(obj, write, pad: str = "\n") -> None:
    """Write ``obj`` (str dict keys only) as ``json.dumps(obj, indent=2)`` would,
    in chunks; lists, tuples and iterators (consumed as written) become arrays,
    an object with ``json_chunks(pad)`` (``matchings.MatchingIdLists``,
    ``polytope.CutClassRows``, ``polytope.FaceMembers``) the text it yields,
    and a function its value when reached."""
    inner = pad + "  "
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in obj.items():
            write(sep + encode_basestring_ascii(key) + ": ")
            write_json(value, write, inner)
            sep = "," + inner
        write("{}" if sep[0] == "{" else pad + "}")
    elif hasattr(obj, "json_chunks"):
        for chunk in obj.json_chunks(pad):
            write(chunk)
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) == {int}:
        write("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]")
    elif isinstance(obj, (list, tuple, Iterator)):
        sep = "[" + inner
        for value in obj:
            write(sep)
            write_json(value, write, inner)
            sep = "," + inner
        write("[]" if sep[0] == "[" else pad + "]")
    elif callable(obj):
        write_json(obj(), write, pad)
    else:
        write(encode_basestring_ascii(obj) if isinstance(obj, str) else _scalar(obj))


def _is_json_int(x) -> bool:
    # bool is an int subclass, but JSON true/false is not an integer
    return isinstance(x, int) and not isinstance(x, bool)


class _Decoding:
    """The settings of ``json.loads``' default decoder, for ``make_scanner``."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_int, parse_float = int, float
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


_scan = make_scanner(_Decoding)
_JSON_SPACE = " \t\n\r"


def _load_json(text: str):
    """``json.loads(text)``, read by the scanner that ``json.loads`` uses.  A
    text it does not read whole (a BOM, a syntax error, trailing data, nesting
    past the recursion limit) goes to ``json.loads``, which raises its own
    exception and message."""
    start = len(text) - len(text.lstrip(_JSON_SPACE))
    # StopIteration is "Expecting value", and a syntax error is SystemError
    # until json.decoder, whose JSONDecodeError the scanner raises, is loaded
    try:
        obj, end = _scan(text, start)
    except (StopIteration, ValueError, RecursionError, SystemError):
        pass
    else:
        if not text[end:].strip(_JSON_SPACE):
            return obj
    import json
    return json.loads(text)


def parse_graph_file(text: str) -> tuple[str, MultiGraph]:
    """Parse and validate a GraphFile; raises ValueError on any violation."""
    try:
        data = _load_json(text)
    except RecursionError:
        raise ValueError("GraphFile nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("GraphFile must be a JSON object")
    name = data.get("name")
    n = data.get("vertex_count")
    edges = data.get("edges")
    if not isinstance(name, str) or not _is_json_int(n) or not isinstance(edges, list):
        raise ValueError("GraphFile needs string 'name', integer 'vertex_count', list 'edges'")
    triples = []
    for item in edges:
        if not isinstance(item, dict) or set(item) != {"id", "u", "v"}:
            raise ValueError("each edge must be an object with keys id, u, v")
        eid, u, v = item["id"], item["u"], item["v"]
        if not all(_is_json_int(x) for x in (eid, u, v)):
            raise ValueError("edge fields must be integers")
        triples.append((eid, u, v))
    ids = sorted(t[0] for t in triples)
    if ids != list(range(len(triples))):
        raise ValueError("edge ids must be exactly 0..m-1")
    # MultiGraph rejects a negative vertex count, self-loops and endpoints out of range
    return name, MultiGraph(n, tuple(sorted(triples)))
