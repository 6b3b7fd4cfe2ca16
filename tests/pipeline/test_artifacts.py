"""Fingerprinting, digests, and the in-memory LRU artifact store."""

import enum
from dataclasses import dataclass

import pytest

from repro.pipeline import ArtifactStore, FingerprintError, digest, fingerprint
from repro.sensors.extern import default_extern_registry


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Knobs:
    depth: int
    name: str


class Stateless:
    def accepts(self, *_):
        return True


class TestFingerprint:
    def test_scalars(self):
        assert fingerprint(None) == "None"
        assert fingerprint(3) != fingerprint("3")
        assert fingerprint(True) != fingerprint(1.0)

    def test_enum(self):
        assert fingerprint(Color.RED) == "Color.RED"
        assert fingerprint(Color.RED) != fingerprint(Color.BLUE)

    def test_dataclass_by_content(self):
        assert fingerprint(Knobs(3, "x")) == fingerprint(Knobs(3, "x"))
        assert fingerprint(Knobs(3, "x")) != fingerprint(Knobs(4, "x"))

    def test_containers_and_set_order_invariance(self):
        assert fingerprint([1, 2]) != fingerprint((1, 2))
        assert fingerprint({"b": 2, "a": 1}) == fingerprint({"a": 1, "b": 2})
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})

    def test_stateless_object_identified_by_class(self):
        assert fingerprint(Stateless()) == "Stateless"

    def test_cache_fingerprint_hook_wins(self):
        registry = default_extern_registry()
        fp = fingerprint(registry)
        assert fp.startswith("ExternRegistry(")
        assert fp == fingerprint(registry.copy())

    def test_opaque_object_raises(self):
        class Opaque:
            __slots__ = ("x",)

            def __init__(self):
                self.x = object()

        with pytest.raises(FingerprintError):
            fingerprint(Opaque())


class TestDigest:
    def test_framing_prevents_concatenation_collisions(self):
        assert digest("ab", "c") != digest("a", "bc")

    def test_deterministic(self):
        assert digest("x", "y") == digest("x", "y")


class TestStoreMemory:
    def test_roundtrip_and_miss(self):
        store = ArtifactStore()
        assert store.get("parse:00") == (None, False)
        store.put("parse:00", {"k": 1})
        assert store.get("parse:00") == ({"k": 1}, True)

    def test_lru_evicts_oldest(self):
        store = ArtifactStore(capacity=2)
        store.put("p:1", 1)
        store.put("p:2", 2)
        store.get("p:1")  # touch: 2 becomes the eviction candidate
        store.put("p:3", 3)
        assert store.get("p:2") == (None, False)
        assert store.get("p:1") == (1, True)
        assert store.get("p:3") == (3, True)

    def test_invalidate_pass_by_prefix(self):
        store = ArtifactStore()
        store.put("parse:1", 1)
        store.put("parse:2", 2)
        store.put("lower:1", 3)
        assert store.invalidate_pass("parse") == 2
        assert store.get("lower:1") == (3, True)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ArtifactStore(capacity=0)

    def test_clear_empties_the_store(self):
        store = ArtifactStore()
        store.put("parse:aa", 1)
        store.clear()
        assert len(store) == 0
        assert store.get("parse:aa") == (None, False)
