"""The typed document reader shared by model documents and both config formats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import pytest

from reachmap.errors import MalformedConfig, MalformedModel
from reachmap.fileio import decode_json, from_fields, reject_unknown


class Color(Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Thing:
    count: int
    scale: float = 1.0
    on: bool = False
    color: Color = Color.RED

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


class TestFromFields:
    def test_reads_every_field(self):
        d = {"count": 3, "scale": 0.5, "on": True, "color": "blue"}
        assert from_fields(Thing, d, "$", MalformedModel) == Thing(3, 0.5, True, Color.BLUE)

    def test_without_defaults_every_field_is_required(self):
        with pytest.raises(MalformedModel, match=r"^\$\.scale: missing required field$"):
            from_fields(Thing, {"count": 3}, "$", MalformedModel)

    def test_with_defaults_absent_fields_keep_them(self):
        assert from_fields(Thing, {"count": 3}, "$", MalformedConfig, defaults=True) == Thing(3)

    def test_with_defaults_a_field_without_one_is_required(self):
        with pytest.raises(MalformedConfig, match=r"^\$\.count: missing required field$"):
            from_fields(Thing, {}, "$", MalformedConfig, defaults=True)

    @pytest.mark.parametrize(
        "key, value",
        [("count", 2.0), ("count", True), ("count", "2"), ("scale", "x"), ("scale", None),
         ("scale", math.nan), ("scale", -math.inf), ("scale", 10**400), ("on", 1),
         ("color", "green"), ("color", [])],
    )
    def test_wrong_type_names_the_key(self, key, value):
        d = {"count": 3, key: value}
        with pytest.raises(MalformedConfig, match=rf"^\$\.doc\.{key}: expected"):
            from_fields(Thing, d, "$.doc", MalformedConfig, defaults=True)

    def test_integer_for_a_float_field_becomes_float(self):
        scale = from_fields(Thing, {"count": 1, "scale": 2}, "$", MalformedConfig,
                            defaults=True).scale
        assert scale == 2.0 and type(scale) is float

    def test_prefixed_keys(self):
        got = from_fields(Thing, {"t_count": 4, "t_on": True}, "$", MalformedConfig,
                          defaults=True, prefix="t_")
        assert got == Thing(4, on=True)
        with pytest.raises(MalformedConfig, match=r"^\$\.t_count: expected an integer"):
            from_fields(Thing, {"t_count": 0.5}, "$", MalformedConfig, defaults=True,
                        prefix="t_")

    def test_given_fields_are_not_read(self):
        got = from_fields(Thing, {"count": "ignored"}, "$", MalformedConfig, defaults=True,
                          count=5)
        assert got == Thing(5)

    def test_validation_error_is_raised_at_the_object(self):
        with pytest.raises(MalformedConfig, match=r"^\$\.x: count must be >= 0, got -1$"):
            from_fields(Thing, {"count": -1}, "$.x", MalformedConfig, defaults=True)

    def test_non_object(self):
        with pytest.raises(MalformedModel, match=r"^\$: expected an object, got list$"):
            from_fields(Thing, [], "$", MalformedModel)


class TestDecodeJson:
    def test_decodes(self):
        assert decode_json('{"a": 1}', lambda doc: doc["a"], MalformedModel) == 1

    def test_invalid_json(self):
        with pytest.raises(MalformedConfig, match=r"^\$: invalid JSON"):
            decode_json("{nope", dict, MalformedConfig)

    def test_too_deep_for_the_parser(self):
        with pytest.raises(MalformedModel, match=r"^\$: nested too deeply$"):
            decode_json("[" * 100_000 + "]" * 100_000, list, MalformedModel)

    def test_too_deep_for_the_decoder(self):
        def forever(v):
            return forever(v)

        with pytest.raises(MalformedModel, match=r"^\$: nested too deeply$"):
            decode_json("[]", forever, MalformedModel)


def test_reject_unknown():
    reject_unknown({"a": 1}, ("a", "b"), "$", MalformedConfig)
    with pytest.raises(MalformedConfig, match=r"^\$\.m: unknown keys \['c', 'd'\]$"):
        reject_unknown({"a": 1, "d": 2, "c": 3}, ("a",), "$.m", MalformedConfig)
