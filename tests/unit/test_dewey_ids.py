"""Unit tests for Dewey structural identifiers."""

import pytest

from repro import DeweyID
from repro.errors import InvalidDeweyIDError


class TestConstruction:
    def test_root_is_single_component(self):
        assert DeweyID.root().components == (1,)

    def test_from_string_round_trip(self):
        identifier = DeweyID.from_string("1.3.2")
        assert identifier.components == (1, 3, 2)
        assert str(identifier) == "1.3.2"

    def test_rejects_empty(self):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID(())

    def test_rejects_non_positive_components(self):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID((1, 0))

    def test_rejects_malformed_text(self):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID.from_string("1.x.2")

    def test_depth_and_ordinal(self):
        identifier = DeweyID((1, 4, 2))
        assert identifier.depth == 3
        assert identifier.ordinal == 2


class TestStructuralRelationships:
    def test_parent_of_child(self):
        child = DeweyID((1, 2, 3))
        assert child.parent() == DeweyID((1, 2))

    def test_root_has_no_parent(self):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID.root().parent()

    def test_child_constructor(self):
        assert DeweyID((1,)).child(5) == DeweyID((1, 5))

    def test_child_ordinal_must_be_positive(self):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID((1,)).child(0)

    @pytest.mark.parametrize("ordinal", [0, -3, "2", 2.0, None])
    def test_child_validates_its_ordinal(self, ordinal):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID((1, 2)).child(ordinal)

    def test_child_equals_the_checked_constructor(self):
        # child() trusts its parent's components and checks the ordinal only
        made = DeweyID((1, 4)).child(7)
        built = DeweyID((1, 4, 7))
        assert made == built and hash(made) == hash(built)
        assert made.components == (1, 4, 7) and str(made) == "1.4.7"
        assert DeweyID((1, 4, 6)) < made < DeweyID((1, 5))
        assert made.parent() == DeweyID((1, 4))
        assert str(made.child(True)) == "1.4.7.1"

    def test_ancestor_derivation(self):
        identifier = DeweyID((1, 2, 3, 4))
        assert identifier.ancestor(2) == DeweyID((1, 2))
        assert identifier.ancestor(0) == identifier

    def test_ancestor_beyond_root_fails(self):
        with pytest.raises(InvalidDeweyIDError):
            DeweyID((1, 2)).ancestor(2)

    def test_is_ancestor_of(self):
        assert DeweyID((1,)).is_ancestor_of(DeweyID((1, 3, 2)))
        assert not DeweyID((1, 3, 2)).is_ancestor_of(DeweyID((1,)))
        assert not DeweyID((1, 2)).is_ancestor_of(DeweyID((1, 3, 1)))

    def test_ancestor_is_strict(self):
        assert not DeweyID((1, 2)).is_ancestor_of(DeweyID((1, 2)))

    def test_is_parent_of(self):
        assert DeweyID((1, 2)).is_parent_of(DeweyID((1, 2, 1)))
        assert not DeweyID((1, 2)).is_parent_of(DeweyID((1, 2, 1, 1)))
        assert not DeweyID((1, 2)).is_parent_of(DeweyID((1, 3, 1)))

    def test_is_child_and_descendant(self):
        assert DeweyID((1, 2, 1)).is_child_of(DeweyID((1, 2)))
        assert DeweyID((1, 2, 1)).is_descendant_of(DeweyID((1,)))

    def test_common_ancestor(self):
        a = DeweyID((1, 2, 3))
        b = DeweyID((1, 2, 5, 1))
        assert a.common_ancestor(b) == DeweyID((1, 2))

    def test_distance_to_ancestor(self):
        node = DeweyID((1, 2, 3, 4))
        assert node.distance_to_ancestor(DeweyID((1, 2))) == 2
        with pytest.raises(InvalidDeweyIDError):
            node.distance_to_ancestor(DeweyID((1, 3)))


class TestOrdering:
    def test_document_order(self):
        ids = [DeweyID((1, 2)), DeweyID((1,)), DeweyID((1, 1, 5)), DeweyID((1, 1))]
        assert sorted(ids) == [
            DeweyID((1,)),
            DeweyID((1, 1)),
            DeweyID((1, 1, 5)),
            DeweyID((1, 2)),
        ]

    def test_ancestor_sorts_before_descendant(self):
        assert DeweyID((1, 2)) < DeweyID((1, 2, 1))

    def test_hash_and_equality(self):
        assert hash(DeweyID((1, 2))) == hash(DeweyID((1, 2)))
        assert DeweyID((1, 2)) != DeweyID((1, 3))
        assert len({DeweyID((1, 2)), DeweyID((1, 2)), DeweyID((1, 3))}) == 2
