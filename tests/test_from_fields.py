"""`errors.from_fields`, the one reader of typed JSON documents: one test per
annotation form it reads, plus the key checks every form shares."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from crossemo.errors import BadConfig, from_fields


@dataclass(frozen=True)
class Inner:
    a: int
    b: str = "x"


@dataclass(frozen=True)
class Outer:
    inner: Inner = field(default_factory=lambda: Inner(0))
    maybe: int | None = None
    many: tuple[float, ...] = ()
    pair: tuple[int, str] = (0, "")
    named: dict[str, Inner] = field(default_factory=dict)
    n: int = 0
    x: float = 0.0
    flag: bool = False
    text: str = ""
    anything: object = None


@dataclass(frozen=True)
class Unsupported:
    items: list = field(default_factory=list)


def read(**obj) -> Outer:
    return from_fields(Outer, obj, "outer")


def test_nested_dataclass_from_an_object():
    assert read(inner={"a": 3}).inner == Inner(3, "x")
    with pytest.raises(BadConfig, match=r"outer\.inner must be an object"):
        read(inner=3)
    with pytest.raises(BadConfig, match=r"unknown outer\.inner keys: c"):
        read(inner={"a": 3, "c": 1})
    with pytest.raises(BadConfig, match=r"missing outer\.inner keys: a"):
        read(inner={"b": "y"})


def test_optional_takes_null_or_its_type():
    assert read(maybe=None).maybe is None
    assert read(maybe=4).maybe == 4
    with pytest.raises(BadConfig, match=r"outer\.maybe must be int"):
        read(maybe="4")


def test_variadic_tuple_from_an_array():
    assert read(many=[1, 2.5]).many == (1, 2.5)
    with pytest.raises(BadConfig, match=r"outer\.many\[1\] must be float"):
        read(many=[1.0, "2"])
    with pytest.raises(BadConfig, match=r"outer\.many must be tuple\[float, \.\.\.\]"):
        read(many=1.0)


def test_fixed_length_tuple_checks_length_and_each_position():
    assert read(pair=[1, "a"]).pair == (1, "a")
    for bad in ([1], [1, "a", "b"], ["a", 1]):
        with pytest.raises(BadConfig, match=r"outer\.pair"):
            read(pair=bad)


def test_dict_reads_each_value():
    assert read(named={"k": {"a": 1}}).named == {"k": Inner(1)}
    with pytest.raises(BadConfig, match=r"outer\.named\.k\.a must be int"):
        read(named={"k": {"a": "1"}})
    with pytest.raises(BadConfig, match=r"outer\.named must be dict"):
        read(named=[{"a": 1}])


@pytest.mark.parametrize("key, good, bad", [
    ("n", 3, [True, 3.0, "3", None]),
    ("x", 3, [True, "3.0", None]),  # an int is a float, kept as it is
    ("flag", True, [1, "true", None]),
    ("text", "t", [3, None]),
])
def test_scalars_never_take_a_bool_for_a_number(key, good, bad):
    assert getattr(read(**{key: good}), key) == good
    for value in bad:
        with pytest.raises(BadConfig, match=rf"outer\.{key} must be"):
            read(**{key: value})


def test_object_takes_anything_unchanged():
    value = {"a": [1, None, "x"]}
    assert read(anything=value).anything is value


def test_other_annotations_raise():
    with pytest.raises(BadConfig, match=r"unsupported\.items: no reader for the annotation"):
        from_fields(Unsupported, {"items": []}, "unsupported")


def test_non_object_unknown_and_ignored_keys():
    for obj in (None, [], "x", 3):
        with pytest.raises(BadConfig, match="outer must be an object"):
            from_fields(Outer, obj, "outer")
    with pytest.raises(BadConfig, match="unknown outer keys: extra"):
        read(extra=1)
    assert from_fields(Outer, {"n": 2, "extra": 1}, "outer", ignore=("extra",)) == Outer(n=2)
