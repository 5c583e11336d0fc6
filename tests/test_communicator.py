"""Unit tests for communicators and the communicator table."""

import pytest

from repro.core.communicator import (
    CartesianCommunicator,
    Communicator,
    CommunicatorTable,
    WORLD_NAME,
)


class TestCommunicator:
    def test_world_identity_mapping(self):
        comm = Communicator.world(5)
        assert comm.size == 5
        assert comm.is_world_like
        assert comm.to_global(3) == 3
        assert comm.to_local(4) == 4

    def test_subgroup_translation(self):
        comm = Communicator("SUB", (2, 5, 7))
        assert comm.to_global(1) == 5
        assert comm.to_local(7) == 2
        assert not comm.is_world_like

    def test_translation_errors(self):
        comm = Communicator("SUB", (2, 5))
        with pytest.raises(ValueError):
            comm.to_global(2)
        with pytest.raises(ValueError):
            comm.to_local(3)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            Communicator("BAD", (1, 1, 2))

    def test_negative_members_rejected(self):
        with pytest.raises(ValueError):
            Communicator("BAD", (0, -1))

    def test_world_needs_positive_size(self):
        with pytest.raises(ValueError):
            Communicator.world(0)

    def test_iteration_and_len(self):
        comm = Communicator("S", (3, 1))
        assert list(comm) == [3, 1]
        assert len(comm) == 2


class TestCartesian:
    def test_dims_must_multiply_out(self):
        with pytest.raises(ValueError):
            CartesianCommunicator("CART", tuple(range(5)), dims=(2, 3))

    def test_is_not_world_like_when_permuted(self):
        comm = CartesianCommunicator("CART", (3, 2, 1, 0), dims=(4,))
        assert not comm.is_world_like


class TestCommunicatorTable:
    def test_world_registered_by_default(self):
        table = CommunicatorTable.for_world(4)
        assert WORLD_NAME in table
        assert table.get(WORLD_NAME).size == 4
        assert table.uses_only_global

    def test_add_sub_communicator(self):
        table = CommunicatorTable.for_world(8)
        table.add(Communicator("SUB", (0, 2, 4)))
        assert "SUB" in table
        assert not table.uses_only_global  # paper exclusion criterion

    def test_world_like_subset_does_not_trip_criterion(self):
        table = CommunicatorTable.for_world(8)
        table.add(Communicator("PREFIX", (0, 1, 2)))
        assert table.uses_only_global

    def test_members_outside_world_rejected(self):
        table = CommunicatorTable.for_world(4)
        with pytest.raises(ValueError):
            table.add(Communicator("BAD", (2, 9)))

    def test_conflicting_redefinition_rejected(self):
        table = CommunicatorTable.for_world(4)
        table.add(Communicator("S", (0, 1)))
        with pytest.raises(ValueError):
            table.add(Communicator("S", (0, 2)))

    def test_unknown_lookup_raises(self):
        table = CommunicatorTable.for_world(2)
        with pytest.raises(KeyError):
            table.get("NOPE")

    def test_names_sorted(self):
        table = CommunicatorTable.for_world(4)
        table.add(Communicator("A", (0,)))
        assert table.names() == sorted(table.names())
