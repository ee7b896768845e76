"""Write a workload's GraphFiles: ``python3 perfbench/graphs.py OUT_DIR SPECS``.

``SPECS`` is a JSON object mapping a graph id to a spec; the file
``OUT_DIR/<id>.json`` is written for each.  Specs:

- ``["corpus", name]``: a bundled graph, through ``pmlattice corpus emit``;
- ``["random", seed, vertices, matchings]``: through ``pmlattice corpus random``;
- ``["complete", n]``: the complete graph K_n;
- ``["mobius", n]``: the Moebius ladder on n vertices (the n-cycle plus its
  n/2 long diagonals), a brace when n/2 is odd and a brick when it is even.

The CLI has no generator for the last two, so they are built with
``MultiGraph.from_pairs`` and written with ``dump_graph_file``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

from pmlattice.cli import main as cli_main
from pmlattice.corpus import dump_graph_file
from pmlattice.graph import MultiGraph


def complete_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def mobius_pairs(n: int) -> list[tuple[int, int]]:
    half = n // 2
    cycle = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return cycle + [(i, i + half) for i in range(half)]


def write_graph(path: str, spec: list) -> None:
    kind, *params = spec
    if kind == "corpus":
        code = cli_main(["corpus", "emit", params[0], "--output", path])
    elif kind == "random":
        seed, vertices, matchings = params
        code = cli_main(["corpus", "random", "--seed", str(seed), "--vertices", str(vertices),
                         "--matchings", str(matchings), "--output", path])
    elif kind == "complete":
        n, = params
        with open(path, "w") as fh:
            fh.write(dump_graph_file(f"K{n}", MultiGraph.from_pairs(n, complete_pairs(n))))
        code = 0
    elif kind == "mobius":
        n, = params
        with open(path, "w") as fh:
            fh.write(dump_graph_file(f"mobius-{n}", MultiGraph.from_pairs(n, mobius_pairs(n))))
        code = 0
    else:
        raise ValueError(f"unknown graph spec {spec!r}")
    if code != 0:
        raise RuntimeError(f"graph spec {spec!r} failed with exit code {code}")


def main(argv: list[str]) -> int:
    out_dir, specs = argv[0], json.loads(argv[1])
    for gid, spec in specs.items():
        write_graph(os.path.join(out_dir, gid + ".json"), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
