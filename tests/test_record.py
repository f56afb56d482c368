"""Frozen records: construction, equality, hashing, repr and immutability."""

from typing import Optional

import pytest

from hyperinv.record import frozen_record


@frozen_record
class Point:
    x: int
    y: int = 0
    tag: Optional[str] = None

    def __iter__(self):
        return iter((self.x, self.y))


@frozen_record
class Positive:
    value: int

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("value must be positive")


class TestFrozenRecord:
    def test_fields_in_order_with_defaults(self):
        p = Point(1)
        assert (p.x, p.y, p.tag) == (1, 0, None)
        assert Point(1, 2, "a") == Point(x=1, tag="a", y=2)

    def test_equality_and_hash_by_fields_within_one_class(self):
        assert Point(1, 2) == Point(1, 2)
        assert Point(1, 2) != Point(2, 1)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert len({Point(1, 2), Point(1, 2), Point(1, 3)}) == 2
        assert Point(1) != Positive(1)
        assert Point(1, 2) != (1, 2, None)

    def test_repr_names_every_field(self):
        assert repr(Point(1, tag="a")) == "Point(x=1, y=0, tag='a')"

    def test_immutable(self):
        p = Point(1)
        with pytest.raises(AttributeError):
            p.x = 2
        with pytest.raises(AttributeError):
            del p.y
        assert p.x == 1

    def test_post_init_and_own_methods_kept(self):
        with pytest.raises(ValueError):
            Positive(0)
        assert Positive(3).value == 3
        x, y = Point(4, 5)
        assert (x, y) == (4, 5)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),  # missing field without default
        ((1, 2, 3, 4), {}),  # too many
        ((1,), {"x": 2}),  # repeated
        ((1,), {"z": 2}),  # unknown
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)
