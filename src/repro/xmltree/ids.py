"""Dewey-style structural identifiers.

The paper relies on *structural* element IDs (ORDPATH [21], Dewey IDs [25])
with three properties:

1. comparing two IDs decides ancestor/descendant and parent/child
   relationships (used by the structural joins ``⋈≺`` and ``⋈≺≺``),
2. IDs order nodes in document order,
3. the ID of a node's parent can be *derived* from the node's own ID
   (used by the ``navfID`` operator and the "virtual ID" pre-processing of
   Section 4.6).

A :class:`DeweyID` is an immutable sequence of 1-based sibling ordinals: the
root is ``(1,)``, its second child is ``(1, 2)``, the first child of that
child is ``(1, 2, 1)`` and so on.  All three properties above hold by simple
tuple manipulation.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Sequence

from repro.errors import InvalidDeweyIDError

__all__ = ["DeweyID"]


@total_ordering
class DeweyID:
    """An immutable Dewey-style structural identifier.

    Instances compare in document order (pre-order of the tree): an ancestor
    sorts before all of its descendants, and siblings sort by ordinal.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[int]):
        comps = tuple(int(c) for c in components)
        if not comps:
            raise InvalidDeweyIDError("a DeweyID needs at least one component")
        if any(c < 1 for c in comps):
            raise InvalidDeweyIDError(
                f"DeweyID components must be >= 1, got {comps!r}"
            )
        self._components = comps

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def root(cls) -> "DeweyID":
        """The identifier of a document root."""
        return cls((1,))

    @classmethod
    def from_string(cls, text: str) -> "DeweyID":
        """Parse an identifier written in dotted notation, e.g. ``"1.3.2"``."""
        parts = text.strip().split(".")
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise InvalidDeweyIDError(f"malformed DeweyID text: {text!r}") from exc

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def components(self) -> tuple[int, ...]:
        """The underlying tuple of sibling ordinals."""
        return self._components

    @property
    def depth(self) -> int:
        """Depth of the node; the root has depth 1."""
        return len(self._components)

    @property
    def ordinal(self) -> int:
        """The node's 1-based position among its siblings."""
        return self._components[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __hash__(self) -> int:
        return hash(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeweyID):
            return NotImplemented
        return self._components == other._components

    def __lt__(self, other: "DeweyID") -> bool:
        if not isinstance(other, DeweyID):
            return NotImplemented
        return self._components < other._components

    def __repr__(self) -> str:
        return f"DeweyID({self})"

    def __str__(self) -> str:
        return ".".join(map(str, self._components))

    # ------------------------------------------------------------------ #
    # structural relationships
    # ------------------------------------------------------------------ #
    def parent(self) -> "DeweyID":
        """Return the parent's identifier.

        Raises :class:`InvalidDeweyIDError` when called on the root, which
        has no parent.
        """
        if len(self._components) == 1:
            raise InvalidDeweyIDError("the root DeweyID has no parent")
        return DeweyID(self._components[:-1])

    def ancestor(self, levels_up: int) -> "DeweyID":
        """Return the ancestor ``levels_up`` levels above this node.

        ``levels_up == 0`` returns the identifier itself; ``levels_up == 1``
        is the parent, and so on.  This is the computation behind the paper's
        *virtual ID* derivation (Section 4.6).
        """
        if levels_up < 0:
            raise InvalidDeweyIDError("levels_up must be non-negative")
        if levels_up >= len(self._components):
            raise InvalidDeweyIDError(
                f"cannot go {levels_up} levels up from a depth-"
                f"{len(self._components)} identifier"
            )
        if levels_up == 0:
            return self
        return DeweyID(self._components[:-levels_up])

    def child(self, ordinal: int) -> "DeweyID":
        """Return the identifier of this node's ``ordinal``-th child."""
        if not isinstance(ordinal, int) or ordinal < 1:
            raise InvalidDeweyIDError(
                f"child ordinals are 1-based integers, got {ordinal!r}"
            )
        # the parent's components were validated when it was made: check the
        # new ordinal only (a document build calls this once per node)
        child = DeweyID.__new__(DeweyID)
        child._components = self._components + (int(ordinal),)
        return child

    def is_ancestor_of(self, other: "DeweyID") -> bool:
        """True iff this node is a *strict* ancestor of ``other``."""
        mine, theirs = self._components, other._components
        return len(mine) < len(theirs) and theirs[: len(mine)] == mine

    def is_descendant_of(self, other: "DeweyID") -> bool:
        """True iff this node is a *strict* descendant of ``other``."""
        return other.is_ancestor_of(self)

    def is_parent_of(self, other: "DeweyID") -> bool:
        """True iff this node is the parent of ``other``."""
        return (
            len(other._components) == len(self._components) + 1
            and other._components[: len(self._components)] == self._components
        )

    def is_child_of(self, other: "DeweyID") -> bool:
        """True iff this node is a child of ``other``."""
        return other.is_parent_of(self)

    def is_ancestor_or_self_of(self, other: "DeweyID") -> bool:
        """True iff this node is ``other`` or one of its ancestors."""
        return self == other or self.is_ancestor_of(other)

    def common_ancestor(self, other: "DeweyID") -> "DeweyID":
        """Return the deepest identifier that is an ancestor-or-self of both."""
        prefix: list[int] = []
        for a, b in zip(self._components, other._components):
            if a != b:
                break
            prefix.append(a)
        if not prefix:
            raise InvalidDeweyIDError(
                "identifiers from different documents share no common ancestor"
            )
        return DeweyID(prefix)

    def distance_to_ancestor(self, ancestor: "DeweyID") -> int:
        """Number of edges between this node and ``ancestor`` (ancestor-or-self)."""
        if not ancestor.is_ancestor_or_self_of(self):
            raise InvalidDeweyIDError(f"{ancestor} is not an ancestor of {self}")
        return len(self._components) - len(ancestor._components)
