"""Basic map semantics of the PH-tree: put/get/remove/contains/iteration,
argument validation, update_key, clear."""

from __future__ import annotations

import pytest

from repro import PHTree


class TestConstruction:
    def test_defaults(self):
        tree = PHTree(dims=3)
        assert tree.dims == 3
        assert tree.width == 64
        assert len(tree) == 0
        assert not tree
        assert tree.root is None

    @pytest.mark.parametrize("dims", [0, -1])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ValueError):
            PHTree(dims=dims)

    @pytest.mark.parametrize("width", [0, -5])
    def test_rejects_bad_width(self, width):
        with pytest.raises(ValueError):
            PHTree(dims=2, width=width)

    def test_rejects_bad_hc_mode(self):
        with pytest.raises(ValueError):
            PHTree(dims=2, hc_mode="sometimes")

    def test_rejects_negative_hysteresis(self):
        with pytest.raises(ValueError):
            PHTree(dims=2, hc_hysteresis=-0.1)


class TestPutGet:
    def test_single_entry(self):
        tree = PHTree(dims=1, width=4)
        assert tree.put((2,), "two") is None
        assert len(tree) == 1
        assert tree.get((2,)) == "two"
        assert tree.contains((2,))
        assert (2,) in tree

    def test_paper_figure_1b(self):
        # The 1D example: 0010 then 0001 share the prefix 00.
        tree = PHTree(dims=1, width=4)
        tree.put((0b0010,))
        tree.put((0b0001,))
        assert len(tree) == 2
        assert tree.contains((0b0010,))
        assert tree.contains((0b0001,))
        assert not tree.contains((0b0000,))

    def test_paper_figure_2(self):
        # The 2D example: (0001, 1000), (0011, 1000), (0011, 1010).
        tree = PHTree(dims=2, width=4)
        for key in [(0b0001, 0b1000), (0b0011, 0b1000), (0b0011, 0b1010)]:
            tree.put(key)
        assert len(tree) == 3
        assert sorted(tree.keys()) == [
            (0b0001, 0b1000),
            (0b0011, 0b1000),
            (0b0011, 0b1010),
        ]

    def test_update_returns_previous_value(self):
        tree = PHTree(dims=2, width=8)
        assert tree.put((1, 2), "a") is None
        assert tree.put((1, 2), "b") == "a"
        assert len(tree) == 1
        assert tree.get((1, 2)) == "b"

    def test_get_default(self):
        tree = PHTree(dims=2, width=8)
        assert tree.get((1, 2)) is None
        assert tree.get((1, 2), default="missing") == "missing"

    def test_none_values_are_storable(self):
        tree = PHTree(dims=1, width=8)
        tree.put((5,), None)
        assert tree.contains((5,))
        assert tree.get((5,), default="sentinel") is None

    def test_extreme_coordinates(self):
        tree = PHTree(dims=2, width=8)
        tree.put((0, 0), "origin")
        tree.put((255, 255), "corner")
        tree.put((0, 255), "mixed")
        assert tree.get((0, 0)) == "origin"
        assert tree.get((255, 255)) == "corner"
        assert tree.get((0, 255)) == "mixed"


class TestValidation:
    def test_wrong_dimensionality(self):
        tree = PHTree(dims=2, width=8)
        with pytest.raises(ValueError):
            tree.put((1,))
        with pytest.raises(ValueError):
            tree.put((1, 2, 3))

    def test_out_of_range_coordinates(self):
        tree = PHTree(dims=1, width=8)
        with pytest.raises(ValueError):
            tree.put((256,))
        with pytest.raises(ValueError):
            tree.put((-1,))

    def test_float_coordinates_rejected(self):
        tree = PHTree(dims=1, width=8)
        with pytest.raises(TypeError):
            tree.put((1.5,))

    def test_list_keys_accepted(self):
        tree = PHTree(dims=2, width=8)
        tree.put([1, 2], "v")
        assert tree.get([1, 2]) == "v"
        assert tree.get((1, 2)) == "v"

    @pytest.mark.parametrize("bad", [(1.0, 2, 3), (1, 2, 300)],
                             ids=["float", "out-of-range"])
    @pytest.mark.parametrize("spelling", [tuple, list, iter])
    @pytest.mark.parametrize(
        "method", ["get", "contains", "put", "remove", "knn"]
    )
    @pytest.mark.parametrize("layout", ["arena", "object"])
    def test_bad_key_error_ignores_spelling(
        self, layout, method, spelling, bad
    ):
        """A list or an iterator of bad coordinates raises the tuple
        key's exception and message, naming the bad coordinate."""
        tree = PHTree(dims=3, width=8, layout=layout)
        op = getattr(tree, method)
        with pytest.raises((TypeError, ValueError)) as expected:
            op(bad)
        with pytest.raises(expected.type) as raised:
            op(spelling(bad))
        assert str(raised.value) == str(expected.value)
        assert str(expected.value).startswith("coordinate ")


class TestRemove:
    def test_remove_returns_value(self):
        tree = PHTree(dims=2, width=8)
        tree.put((1, 2), "x")
        assert tree.remove((1, 2)) == "x"
        assert len(tree) == 0
        assert not tree.contains((1, 2))

    def test_remove_missing_raises(self):
        tree = PHTree(dims=2, width=8)
        with pytest.raises(KeyError):
            tree.remove((1, 2))

    def test_remove_missing_with_default(self):
        tree = PHTree(dims=2, width=8)
        assert tree.remove((1, 2), default="gone") == "gone"

    def test_remove_near_miss(self):
        # A key sharing a long prefix with a stored key must not match.
        tree = PHTree(dims=1, width=16)
        tree.put((0b1010101010101010,), "v")
        with pytest.raises(KeyError):
            tree.remove((0b1010101010101011,))
        assert len(tree) == 1

    def test_reinsert_after_remove(self):
        tree = PHTree(dims=2, width=8)
        tree.put((3, 4), "first")
        tree.remove((3, 4))
        tree.put((3, 4), "second")
        assert tree.get((3, 4)) == "second"


class TestUpdateKey:
    def test_moves_value(self):
        tree = PHTree(dims=2, width=8)
        tree.put((1, 1), "v")
        tree.update_key((1, 1), (200, 200))
        assert not tree.contains((1, 1))
        assert tree.get((200, 200)) == "v"
        assert len(tree) == 1

    def test_same_key_noop(self):
        tree = PHTree(dims=2, width=8)
        tree.put((1, 1), "v")
        tree.update_key((1, 1), (1, 1))
        assert tree.get((1, 1)) == "v"

    def test_missing_source_raises(self):
        tree = PHTree(dims=2, width=8)
        with pytest.raises(KeyError):
            tree.update_key((1, 1), (2, 2))

    def test_occupied_target_raises(self):
        tree = PHTree(dims=2, width=8)
        tree.put((1, 1), "a")
        tree.put((2, 2), "b")
        with pytest.raises(ValueError):
            tree.update_key((1, 1), (2, 2))
        assert tree.get((1, 1)) == "a"


class TestIteration:
    def test_items_in_z_order(self):
        tree = PHTree(dims=1, width=8)
        for v in (200, 5, 120, 64):
            tree.put((v,), v)
        # 1D z-order is numeric order.
        assert [k for k, _ in tree.items()] == [(5,), (64,), (120,), (200,)]
        assert list(tree.keys()) == [(5,), (64,), (120,), (200,)]
        assert list(iter(tree)) == [(5,), (64,), (120,), (200,)]

    def test_items_carry_values(self):
        tree = PHTree(dims=2, width=8)
        tree.put((1, 2), "a")
        tree.put((3, 4), "b")
        assert dict(tree.items()) == {(1, 2): "a", (3, 4): "b"}


class TestClear:
    def test_clear(self, small_tree):
        tree, reference = small_tree
        assert len(tree) == len(reference)
        tree.clear()
        assert len(tree) == 0
        assert tree.root is None
        tree.check_invariants()
        # Tree is reusable after clear.
        tree.put((1, 2, 3), "v")
        assert tree.get((1, 2, 3)) == "v"


class TestSingleDimensionWidths:
    @pytest.mark.parametrize("width", [1, 2, 8, 16, 32, 64])
    def test_various_widths(self, width):
        tree = PHTree(dims=2, width=width)
        hi = (1 << width) - 1
        tree.put((0, hi), "a")
        tree.put((hi, 0), "b")
        assert tree.get((0, hi)) == "a"
        assert tree.get((hi, 0)) == "b"
        tree.check_invariants()

    def test_boolean_tree(self):
        # width=1: each dimension stores a single bit (the paper's boolean
        # dataset scenario from Section 2).
        tree = PHTree(dims=16, width=1)
        key_a = tuple(i % 2 for i in range(16))
        key_b = tuple((i + 1) % 2 for i in range(16))
        tree.put(key_a, "a")
        tree.put(key_b, "b")
        assert tree.get(key_a) == "a"
        assert tree.get(key_b) == "b"
        # One node suffices: all information is in the first bit layer.
        from repro.core import collect_stats

        assert collect_stats(tree).n_nodes == 1
