"""Bidirectional mapping between vertices and dense integer slots.

The on-disk layout of Section 5.1 avoids storing vertex identifiers by
relying on position: the ``i``-th entry of each column belongs to the vertex
with slot ``i``.  :class:`VertexIndex` provides that mapping and grows as
new vertices arrive in the stream.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.exceptions import VertexNotFoundError
from repro.types import Vertex


class VertexIndex:
    """Assign dense, stable integer slots to vertices."""

    def __init__(self, vertices: Iterable[Vertex] = ()) -> None:
        self._slot_of: Dict[Vertex, int] = {}
        self._vertex_of: List[Vertex] = []
        for vertex in vertices:
            self.add(vertex)

    def add(self, vertex: Vertex) -> int:
        """Register ``vertex`` (idempotent) and return its slot."""
        slot = self._slot_of.get(vertex)
        if slot is not None:
            return slot
        slot = len(self._vertex_of)
        self._slot_of[vertex] = slot
        self._vertex_of.append(vertex)
        return slot

    def truncate(self, size: int) -> None:
        """Forget every vertex at slot ``size`` or later."""
        while len(self._vertex_of) > size:
            del self._slot_of[self._vertex_of.pop()]

    def slot(self, vertex: Vertex) -> int:
        """Return the slot of ``vertex`` (raises if unknown)."""
        try:
            return self._slot_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertex(self, slot: int) -> Vertex:
        """Return the vertex stored at ``slot``."""
        if not 0 <= slot < len(self._vertex_of):
            raise IndexError(f"slot {slot} out of range (size {len(self._vertex_of)})")
        return self._vertex_of[slot]

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._slot_of

    def __len__(self) -> int:
        return len(self._vertex_of)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertex_of)

    def vertices(self) -> List[Vertex]:
        """All indexed vertices, in slot order."""
        return list(self._vertex_of)
