"""Same seed, same inputs — on every rank, without exchanging them."""

import numpy as np

import inputs


def test_same_seed_same_payload_and_permutation():
    assert inputs.payload(7, "stream0", 4096) == inputs.payload(7, "stream0", 4096)
    assert inputs.tag_permutation(7, 1024, 3, "U") == \
        inputs.tag_permutation(7, 1024, 3, "U")
    assert inputs.stamp_base(7) == inputs.stamp_base(7)
    assert np.array_equal(inputs.float_vector(7, 128), inputs.float_vector(7, 128))


def test_other_seed_name_round_or_phase_changes_them():
    assert inputs.payload(7, "stream0", 4096) != inputs.payload(8, "stream0", 4096)
    assert inputs.payload(7, "stream0", 4096) != inputs.payload(7, "stream1", 4096)
    base = inputs.tag_permutation(7, 1024, 3, "U")
    assert base != inputs.tag_permutation(8, 1024, 3, "U")
    assert base != inputs.tag_permutation(7, 1024, 4, "U")
    assert base != inputs.tag_permutation(7, 1024, 3, "P")
    assert sorted(base) == list(range(1024))


def test_stamps_are_eight_distinct_bytes_per_iteration():
    base = inputs.stamp_base(1)
    stamps = {inputs.stamp8(base, i) for i in range(-300, 5000)}
    assert len(stamps) == 5300
    assert all(len(s) == 8 for s in stamps)


def test_float_vector_sums_exactly_in_any_order():
    vec = inputs.float_vector(3, 128)
    parts = [vec * (r + 1) for r in range(4)]
    assert np.array_equal(sum(parts), sum(reversed(parts)))
    assert np.array_equal(sum(parts), vec * 10)
