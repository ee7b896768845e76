"""Exception types shared across the package, the default caps whose
excess raises :class:`VertexCapExceeded`, and the one cap check,
:func:`check_cap`."""

from __future__ import annotations

DEFAULT_VERTEX_CAP = 16  # exponential scans (odd shores, tight cuts, faces)
DEFAULT_TRIPLE_CAP = 10  # P-TRIPLE's nested-triple exhaustion (verifier)


class PmLatticeError(Exception):
    """Base class for all package-specific errors."""


class PreconditionViolated(PmLatticeError):
    """An operation was called on an input outside its contract.

    ``reason`` is a short machine-readable tag (e.g. ``"bvn"``,
    ``"petersen_brick"``, ``"not_near_brick"``, ``"not_matching_covered"``).
    """

    def __init__(self, reason: str, message: str | None = None):
        self.reason = reason
        super().__init__(message or reason)


class TheoremFalsified(PmLatticeError):
    """A claim the implementation relies on failed on a concrete input.

    Never expected to fire; carries a machine-readable certificate so a
    failure doubles as a refutation report.
    """

    def __init__(self, claim: str, certificate: dict):
        self.claim = claim
        self.certificate = certificate
        super().__init__(f"claim falsified: {claim}")


class VertexCapExceeded(PmLatticeError):
    """An exponential scan was requested above the configured vertex cap."""

    def __init__(self, vertices: int, cap: int):
        self.vertices = vertices
        self.cap = cap
        super().__init__(f"graph has {vertices} vertices, scan capped at {cap}")


def check_cap(g, max_vertices: int) -> None:
    """Raise :class:`VertexCapExceeded` if graph ``g`` has over ``max_vertices``
    vertices; called only by ``matchings.scan_table``, the one scan gate."""
    if g.vertex_count > max_vertices:
        raise VertexCapExceeded(g.vertex_count, max_vertices)
