"""Unit tests for CONGEST message encoding and bit accounting."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

import repro.baselines
import repro.election
import repro.impossibility
from repro.core import Message, bits_for_int, bits_for_value, congest_budget_bits, id_space_bits


@dataclass(frozen=True)
class _Sample(Message):
    value: int
    flag: bool
    note: Optional[str] = None


@dataclass(frozen=True)
class _Nested(Message):
    pair: Tuple[int, int]


@dataclass(frozen=True)
class _SampleChild(_Sample):
    """A subclass of a subclass that adds fields of its own."""

    extra: int = 0
    items: Tuple[int, ...] = ()


class TestBitsForInt:
    def test_zero_costs_one_bit(self):
        assert bits_for_int(0) == 1

    def test_one_costs_one_bit(self):
        assert bits_for_int(1) == 1

    def test_powers_of_two(self):
        assert bits_for_int(2) == 2
        assert bits_for_int(255) == 8
        assert bits_for_int(256) == 9

    def test_negative_adds_sign_bit(self):
        assert bits_for_int(-255) == bits_for_int(255) + 1

    def test_large_id(self):
        # IDs from {1..n^4} for n=1024 need 40 bits.
        assert bits_for_int(1024 ** 4) == 41


class TestBitsForValue:
    def test_none_is_free(self):
        assert bits_for_value(None) == 0

    def test_bool_costs_one_bit(self):
        assert bits_for_value(True) == 1
        assert bits_for_value(False) == 1

    def test_float_costs_fixed_64(self):
        assert bits_for_value(0.5) == 64

    def test_string_costs_eight_bits_per_char(self):
        assert bits_for_value("abc") == 24

    def test_tuple_sums_elements(self):
        assert bits_for_value((1, 2, 3)) == bits_for_int(1) + bits_for_int(2) + bits_for_int(3)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            bits_for_value(object())


class TestMessageSize:
    def test_size_includes_type_tag(self):
        message = _Sample(value=5, flag=True)
        expected = Message.TYPE_TAG_BITS + bits_for_int(5) + 1
        assert message.size_bits() == expected

    def test_none_fields_are_free(self):
        with_note = _Sample(value=5, flag=True, note="x")
        without_note = _Sample(value=5, flag=True, note=None)
        assert with_note.size_bits() == without_note.size_bits() + 8

    def test_nested_tuple_fields(self):
        message = _Nested(pair=(3, 9))
        assert message.size_bits() == Message.TYPE_TAG_BITS + bits_for_int(3) + bits_for_int(9)

    def test_default_congest_units_is_one(self):
        assert _Sample(value=1, flag=False).congest_units() == 1

    def test_messages_are_immutable(self):
        message = _Sample(value=1, flag=False)
        with pytest.raises(Exception):
            message.value = 2  # type: ignore[misc]


def _reflection_size_bits(message: Message) -> int:
    """The field-walking sum ``Message.size_bits`` used to compute directly."""
    return message.TYPE_TAG_BITS + sum(
        bits_for_value(getattr(message, field.name))
        for field in dataclasses.fields(message)
    )


def _message_classes() -> List[type]:
    found, pending = [], [Message]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.append(cls)
            pending.append(cls)
    return found


#: per field type: a small and a large sample value
_FIELD_SAMPLES = {
    int: (0, 2**40 + 3),
    bool: (False, True),
    float: (0.25, 1e9),
    str: ("", "ab"),
    Optional[int]: (None, 77),
}


def _sample_instances(cls: type) -> List[Message]:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return [
        cls(**{field.name: _FIELD_SAMPLES[hints[field.name]][variant] for field in fields})
        for variant in (0, 1)
    ]


class TestCachedSizeBits:
    """The cached field walk charges exactly what the reflection sum did."""

    def test_every_reachable_message_class(self):
        checked = []
        for cls in _message_classes():
            if cls.size_bits is not Message.size_bits or not cls.__module__.startswith(
                "repro."
            ):
                continue  # own encoding (e.g. TokenBundle) or a test-local class
            for message in _sample_instances(cls):
                assert message.size_bits() == _reflection_size_bits(message), message
            checked.append(cls.__name__)
        # Cautious broadcast (5), convergecast, diffusion (2), explicit
        # announcement, walk probe, flooding and the pumping wheel.
        assert len(checked) >= 12, checked

    @pytest.mark.parametrize(
        "message",
        [
            _Sample(value=5, flag=True),
            _Sample(value=0, flag=False, note="abc"),
            _Sample(value=-9, flag=True, note=None),
            _Nested(pair=(0, 2**70)),
            _SampleChild(value=3, flag=False, extra=2**33, items=(1, 0, True)),
            _SampleChild(value=1, flag=True, note="z"),
        ],
    )
    def test_edge_fields(self, message):
        assert message.size_bits() == _reflection_size_bits(message)

    def test_subclass_does_not_reuse_the_parent_cache(self):
        parent = _Sample(value=4, flag=True)
        child = _SampleChild(value=4, flag=True, extra=4, items=(4,))
        assert parent.size_bits() == Message.TYPE_TAG_BITS + 3 + 1
        assert child.size_bits() == parent.size_bits() + 3 + 3


class TestBudgets:
    def test_id_space_bits_matches_four_log_n(self):
        assert id_space_bits(16) == 16
        assert id_space_bits(1024) == 40

    def test_id_space_bits_small_n(self):
        assert id_space_bits(1) >= 1
        assert id_space_bits(2) == 4

    def test_id_space_bits_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            id_space_bits(0)

    def test_congest_budget_scales_with_log_n(self):
        assert congest_budget_bits(16) == 8 * 4
        assert congest_budget_bits(17) == 8 * 5

    def test_congest_budget_factor(self):
        assert congest_budget_bits(16, factor=2) == 8

    def test_congest_budget_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            congest_budget_bits(0)
