"""Tests for repro.utils: RNG determinism, validation helpers, serialization."""

from __future__ import annotations

import pytest

from repro.utils import (
    RandomSource,
    derive_seed,
    ensure_in_range,
    ensure_non_empty,
    ensure_number,
    ensure_positive,
    ensure_probability,
    ensure_type,
    read_json,
    read_jsonl_list,
    spawn_rng,
    write_json,
    write_jsonl,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_different_labels_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_base_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_non_negative_63_bit(self):
        seed = derive_seed(999, "x", "y", 3)
        assert 0 <= seed < 2 ** 63

    def test_spawn_rng_reproducible(self):
        assert spawn_rng(5, "k").random() == spawn_rng(5, "k").random()


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_spawn_independent_of_parent_consumption(self):
        a = RandomSource(7)
        a.random()  # consume from the parent
        child_after = a.spawn("child").random()
        child_fresh = RandomSource(7).spawn("child").random()
        assert child_after == child_fresh

    def test_spawn_distinct_labels_give_distinct_streams(self):
        src = RandomSource(7)
        assert src.spawn("a").random() != src.spawn("b").random()

    def test_randint_within_bounds(self):
        src = RandomSource(3)
        values = [src.randint(1, 6) for _ in range(200)]
        assert all(1 <= v <= 6 for v in values)
        assert len(set(values)) > 1

    def test_boolean_probability_extremes(self):
        src = RandomSource(3)
        assert all(src.boolean(1.0) for _ in range(20))
        assert not any(src.boolean(0.0) for _ in range(20))

    def test_choice_and_sample(self):
        src = RandomSource(3)
        items = ["a", "b", "c", "d"]
        assert src.choice(items) in items
        sampled = src.sample(items, 2)
        assert len(sampled) == 2
        assert len(set(sampled)) == 2

    def test_shuffled_preserves_elements(self):
        src = RandomSource(3)
        items = list(range(10))
        shuffled = src.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(10))  # original untouched

    def test_poisson_zero_lambda(self):
        assert RandomSource(3).poisson(0) == 0

    def test_poisson_negative_raises(self):
        with pytest.raises(ValueError):
            RandomSource(3).poisson(-1)

    def test_poisson_mean_roughly_lambda(self):
        src = RandomSource(3)
        values = [src.poisson(4.0) for _ in range(400)]
        mean = sum(values) / len(values)
        assert 3.0 < mean < 5.0

    def test_zipf_index_bounds_and_bias(self):
        src = RandomSource(3)
        values = [src.zipf_index(10) for _ in range(500)]
        assert all(0 <= v < 10 for v in values)
        # Lower indices should be more common under a Zipf distribution.
        assert values.count(0) > values.count(9)

    def test_zipf_index_invalid(self):
        with pytest.raises(ValueError):
            RandomSource(3).zipf_index(0)

    def test_lognormal_positive(self):
        src = RandomSource(3)
        assert all(src.lognormal(1.0, 0.5) > 0 for _ in range(50))


class TestValidation:
    def test_ensure_positive_accepts(self):
        assert ensure_positive(2.5, "x") == 2.5

    def test_ensure_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            ensure_positive(0, "x")

    def test_ensure_probability_bounds(self):
        assert ensure_probability(0.0, "p") == 0.0
        assert ensure_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            ensure_probability(1.5, "p")

    def test_ensure_in_range(self):
        assert ensure_in_range(5, 0, 10, "v") == 5
        with pytest.raises(ValueError):
            ensure_in_range(11, 0, 10, "v")

    def test_ensure_non_empty(self):
        assert ensure_non_empty([1], "items") == [1]
        with pytest.raises(ValueError):
            ensure_non_empty([], "items")

    def test_ensure_number(self):
        assert ensure_number(0.0, "w") == 0.0
        assert ensure_number(2, "w") == 2
        assert ensure_number(5e-324, "w", positive=True) == 5e-324
        assert ensure_number(3, "n", positive=True, integer=True) == 3
        for value in (float("nan"), float("inf"), -float("inf"), -0.5):
            with pytest.raises(ValueError, match="w must be non-negative and finite"):
                ensure_number(value, "w")
        with pytest.raises(ValueError, match="w must be positive and finite"):
            ensure_number(0.0, "w", positive=True)
        for value in (2.5, float("nan"), True, "3", None):
            with pytest.raises(ValueError, match="n must be an integer"):
                ensure_number(value, "n", integer=True)
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            ensure_number(0, "n", positive=True, integer=True)
        for value in (True, "1.0", None):
            with pytest.raises(ValueError, match="w must be a real number"):
                ensure_number(value, "w")

    def test_ensure_type(self):
        assert ensure_type("abc", str, "s") == "abc"
        with pytest.raises(TypeError):
            ensure_type(1, str, "s")


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        records = [{"a": 1}, {"b": [1, 2, 3]}, {"c": {"nested": True}}]
        path = tmp_path / "out" / "records.jsonl"
        count = write_jsonl(path, records)
        assert count == 3
        assert read_jsonl_list(path) == records

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl_list(path) == [{"a": 1}, {"b": 2}]

    def test_json_round_trip(self, tmp_path):
        payload = {"name": "run", "values": [0.1, 0.2]}
        path = tmp_path / "deep" / "doc.json"
        write_json(path, payload)
        assert read_json(path) == payload
