"""Command-line interface: graph analysis commands with JSON reports.

The command line is read by ``cmdline.parse_args``; a malformed one exits
2 with a ``precondition``/``usage`` report on stdout and nothing on
stderr.

Reports are byte-deterministic for a fixed input and tool version, so
``timing_ms`` stays null unless --timing is passed.  ``corpus.write_json``
streams every report as ``json.dumps(report, indent=2)`` would write it;
``pm list`` renders its matchings while they are written.  Exit codes: 0
for success / all-pass, 1 for a property failure or falsified claim, 2 for
usage, parse, or precondition errors, an unwritable --output or a closed
stdout.  ``python -m pmlattice.cli`` and the ``pmlattice`` script end
through ``run``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .cmdline import UsageError, parse_args
from .corpus import (CORPUS_NAMES, corpus_graph, graph_to_file_dict,
                     parse_graph_file, random_matching_covered, write_json)
from .errors import (DEFAULT_VERTEX_CAP, PmLatticeError, PreconditionViolated,
                     TheoremFalsified, VertexCapExceeded)
from .matchings import MatchingIdLists, count_perfect_matchings, matching_masks, scan_table

if TYPE_CHECKING:
    from .graph import MultiGraph

SCHEMA = "pmlattice-report/1"
BLOCK = 1 << 16  # characters per write of a report


def _write_blocks(doc: dict, write) -> None:
    """Write ``doc`` and a newline through ``write`` in blocks of about ``BLOCK`` characters."""
    chunks: list[str] = []
    size = 0

    def add(chunk: str) -> None:
        nonlocal size
        chunks.append(chunk)
        size += len(chunk)
        if size >= BLOCK:
            write("".join(chunks))
            chunks.clear()
            size = 0

    write_json(doc, add)
    chunks.append("\n")
    write("".join(chunks))


def _emit(doc: dict, output: str | None) -> None:
    """Stream ``doc`` to stdout, or to ``output`` through a temp file removed on failure."""
    if output is None:
        _write_blocks(doc, sys.stdout.write)
        sys.stdout.flush()
        return
    fh = open(output + ".tmp", "w")
    try:
        with fh:
            _write_blocks(doc, fh.write)
        os.replace(fh.name, output)
    except BaseException:
        os.remove(fh.name)
        raise


def _report(command: str, graph_name: str | None, status: str, result: dict,
            warnings: list[str], timing_ms: float | None) -> dict:
    return {
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


def _load_graph(args) -> tuple[str, MultiGraph]:
    if not args.input:
        raise PreconditionViolated("usage", "--input is required for this command")
    with open(args.input) as fh:
        return parse_graph_file(fh.read())


def _shore(cut) -> list[int]:
    return list(cut.shore)


def _cmd_pm(args, g: MultiGraph) -> dict:
    if args.action == "count":
        return {"count": count_perfect_matchings(g)}
    return {"count": len(matching_masks(g)), "matchings": MatchingIdLists(g)}


def _cmd_polytope(args, g: MultiGraph) -> dict:
    from .polytope import enumerate_codim2_faces, enumerate_facets, polytope_dim
    if args.action == "dim":
        from .decomposition import brick_count
        return {"dim": polytope_dim(g), "edges": len(g.edges),
                "vertices": g.vertex_count, "bricks": brick_count(g)}
    if args.action == "facets":
        facets = enumerate_facets(g, args.max_vertices)
        return {"dim": polytope_dim(g), "facet_count": len(facets),
                "facets": [{"members": list(f.key()),
                            "exposing_edges": list(f.exposed_by_edges),
                            "exposing_cut_shores": [_shore(c) for c in f.exposed_by_cuts]}
                           for f in facets]}
    faces = enumerate_codim2_faces(g, args.max_vertices)
    return {"dim": polytope_dim(g), "count": len(faces),
            "all_edge_exposed": all(f.exposed_by_edges for f in faces),
            "faces": [{"members": list(f.key()),
                       "exposing_edges": list(f.exposed_by_edges)} for f in faces]}


def _cmd_cuts(args, g: MultiGraph) -> dict:
    if args.action == "tight":
        from .decomposition import tight_shores
        scan_table(g, args.max_vertices)
        return {"shores": [list(shore) for shore in tight_shores(g)]}
    from .polytope import classify_all_cuts, facet_cuts, separating_cuts
    if args.action == "classify":
        return {"cuts": [{
            "shore": _shore(c.cut), "boundary": sorted(c.cut.boundary),
            "tight": c.is_tight, "separating": c.is_separating,
            "facet_defining": c.is_facet_defining, "face_dim": c.face.dim,
        } for c in classify_all_cuts(g, args.max_vertices)]}
    if args.action == "separating":
        return {"shores": [_shore(c) for c in separating_cuts(g, args.max_vertices)]}
    return {"shores": [_shore(c) for c in facet_cuts(g, args.max_vertices)]}


def _tree_payload(node) -> dict:
    if node.is_leaf:
        return {"leaf": node.leaf_label, "vertices": node.graph.vertex_count,
                "edges": sorted(node.graph.edge_ids)}
    left, right = node.children
    return {"cut_shore": _shore(node.cut),
            "children": [_tree_payload(left), _tree_payload(right)]}


def _cmd_decompose(args, g: MultiGraph) -> dict:
    from .decomposition import brick_count, is_near_brick, tight_cut_decomposition
    tree = tight_cut_decomposition(g, seed=args.seed)
    leaves = tree.leaves()
    return {"brick_count": brick_count(g), "near_brick": is_near_brick(g),
            "leaves": [{"label": leaf.leaf_label,
                        "vertices": leaf.graph.vertex_count,
                        "edges": sorted(leaf.graph.edge_ids)} for leaf in leaves],
            "tree": _tree_payload(tree)}


def _cmd_bvn(args, g: MultiGraph) -> dict:
    from .polytope import is_bvn
    bvn, witness = is_bvn(g, args.max_vertices)
    return {"bvn": bvn, "witness_shore": _shore(witness) if witness else None}


def _cmd_intersect(args, g: MultiGraph) -> dict:
    from .basis import find_intersection_pair
    pair = find_intersection_pair(g, args.max_vertices)
    return {"matching": sorted(pair.matching.edge_ids),
            "cut_shore": _shore(pair.cut),
            "cut_boundary": sorted(pair.cut.boundary),
            "intersection": len(pair.matching.edge_ids & pair.cut.boundary)}


def _cmd_basis(args, g: MultiGraph) -> dict:
    from .basis import integral_basis, lattice_basis, matching_lattice, matching_saturation
    from .linalg import lattice_index
    if args.action == "integral":
        b, lattice_fields = integral_basis(g, args.max_vertices), {}
    else:
        b, psets = lattice_basis(g, args.max_vertices)
        index = lattice_index(matching_lattice(g), matching_saturation(g))
        lattice_fields = {"parity_sets": [sorted(a) for a in psets], "saturation_index": int(index)}
    return {"kind": b.kind, "size": len(b.elements),
            "matchings": [sorted(m.edge_ids) for m in b.elements],
            **lattice_fields, "verified": True}


def _cmd_characterize(args, g: MultiGraph) -> dict:
    from .basis import characterize_lattice
    return characterize_lattice(g).to_payload()


def _cmd_verify(args, g: MultiGraph, name: str) -> tuple[dict, int]:
    from .verifier import verify_all, verify_property
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


_HANDLERS = {"pm": _cmd_pm, "polytope": _cmd_polytope, "cuts": _cmd_cuts,
             "decompose": _cmd_decompose, "bvn": _cmd_bvn, "intersect": _cmd_intersect,
             "basis": _cmd_basis, "characterize": _cmd_characterize}


def _command_name(args) -> str:
    return args.command + (f" {getattr(args, 'action', '')}".rstrip())


def _error(command: str, exc: Exception) -> dict:
    return _report(command, None, "error",
                   {"error": type(exc).__name__, "message": str(exc)}, [], None)


def _run(args) -> tuple[dict, int]:
    """The report (or GraphFile) of a parsed command line, and its exit code."""
    command, started = _command_name(args), time.monotonic()
    warnings: list[str] = []
    if getattr(args, "max_vertices", DEFAULT_VERTEX_CAP) > DEFAULT_VERTEX_CAP:
        warnings.append(f"vertex cap raised to {args.max_vertices}; "
                        "exponential scans may be slow")

    def finish(name, status, result, code):
        timing = round((time.monotonic() - started) * 1000.0, 3) if args.timing else None
        return _report(command, name, status, result, warnings, timing), code

    name = None
    try:
        if args.command != "corpus":
            name, g = _load_graph(args)
            if args.command == "verify":
                payload, code = _cmd_verify(args, g, name)
                return finish(name, "fail" if code else "ok", payload, code)
            return finish(name, "ok", _HANDLERS[args.command](args, g), 0)
        if args.action == "list":
            return finish(None, "ok", {"names": list(CORPUS_NAMES)}, 0)
        if args.action == "emit":
            if not args.name or args.name not in CORPUS_NAMES:
                raise PreconditionViolated("usage", f"corpus emit needs a name from: "
                                                    f"{', '.join(CORPUS_NAMES)}")
            return graph_to_file_dict(args.name, corpus_graph(args.name)), 0
        if args.vertices is None or args.seed is None:
            raise PreconditionViolated("usage", "corpus random needs --seed and --vertices")
        if args.matchings < 0:
            raise PreconditionViolated("usage", "--matchings must be non-negative")
        if args.vertices > args.max_vertices:
            raise VertexCapExceeded(args.vertices, args.max_vertices)
        return graph_to_file_dict(*random_matching_covered(
            args.seed, args.vertices, args.matchings)), 0
    except TheoremFalsified as exc:
        return _report(command, name, "fail",
                       {"claim": exc.claim, "certificate": exc.certificate}, [], None), 1
    except VertexCapExceeded as exc:
        return _report(command, name, "error",
                       {"error": "vertex_cap", "vertices": exc.vertices,
                        "cap": exc.cap}, [], None), 2
    except PreconditionViolated as exc:
        # graph stays null until perfbench/expected.json, which pins the
        # byte content of one precondition report, is regenerated
        return _precondition(command, exc), 2
    except (PmLatticeError, ValueError, OSError) as exc:
        return _error(command, exc), 2


def _precondition(command: str | None, exc: PreconditionViolated) -> dict:
    return _report(command, None, "error", {"error": "precondition", "reason": exc.reason,
                                            "message": str(exc)}, [], None)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        command, output = exc.command, None
        doc, code = _precondition(command, exc), 2
    else:
        command, output = _command_name(args), args.output
        doc, code = _run(args)
    try:
        _emit(doc, output)
    except OSError as exc:
        if output is not None:  # the --output file could not be written
            _emit(_error(command, exc), None)
            return 2
        # stdout is closed or full, maybe mid-report: write no more, flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def run() -> NoReturn:
    """Run ``main`` and end the process once its report is flushed, without
    interpreter finalization (module teardown, ``atexit`` handlers), which
    no report needs: ``_emit`` has already closed any --output file.  A
    failed flush exits 2 quietly, like a closed stdout in ``main``; an
    exception from ``main``, and ``SystemExit`` from --help, propagate."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
