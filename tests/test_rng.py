from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traitgen.errors import TraitgenError
from traitgen.numeric.rng import Lockstep, Rng, _splitmix_at, _splitmix_range


def test_splitmix64_matches_published_seed0_sequence() -> None:
    # reference sequence for splitmix64 seeded with 0
    assert _splitmix_at(0, 0) == 0xE220A8397B1DCDAF
    assert _splitmix_at(0, 1) == 0x6E789E6AA1B965F4
    assert _splitmix_at(0, 2) == 0x06C45D188009454F


def test_same_seed_means_same_stream() -> None:
    a = Rng(1234)
    b = Rng(1234)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]


def test_different_seeds_diverge() -> None:
    a = Rng(1)
    b = Rng(2)
    assert [a.next_uint64() for _ in range(8)] != [b.next_uint64() for _ in range(8)]


def test_spawn_streams_are_independent_of_parent_position() -> None:
    parent = Rng(99)
    child_before = parent.spawn(7)
    for _ in range(50):
        parent.next_uint64()
    child_after = parent.spawn(7)
    assert [child_before.next_uint64() for _ in range(20)] == [
        child_after.next_uint64() for _ in range(20)
    ]


def test_spawn_streams_differ_by_id() -> None:
    parent = Rng(99)
    assert parent.spawn(0).next_uint64() != parent.spawn(1).next_uint64()


def test_spawn_rejects_negative_id() -> None:
    with pytest.raises(TraitgenError, match="stream_id must be non-negative"):
        Rng(0).spawn(-1)


def test_random_is_in_unit_interval_with_plausible_mean() -> None:
    rng = Rng(7)
    xs = [rng.random() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    # mean of 20000 U(0,1) draws: sd ~ 0.00204, allow 5 sigma
    assert abs(mean - 0.5) < 0.0102


def test_randint_bounds_and_rough_uniformity() -> None:
    rng = Rng(11)
    counts = [0] * 7
    for _ in range(14000):
        v = rng.randint(7)
        assert 0 <= v < 7
        counts[v] += 1
    # expectation 2000 per bucket, sd ~ 44; allow 6 sigma
    assert all(abs(c - 2000) < 264 for c in counts)


def test_randint_rejects_nonpositive_bound() -> None:
    with pytest.raises(TraitgenError, match="randint bound must be positive"):
        Rng(0).randint(0)


def test_randint_bound_of_2_to_the_64_is_the_raw_draw_and_beyond_raises() -> None:
    a, b = Rng(3), Rng(3)
    assert a.randint(2 ** 64) == b.next_uint64()
    # past 2**64 no draw could be accepted: an error, not an endless rejection loop
    for n in (2 ** 64 + 1, (1 << 65) - 1):
        with pytest.raises(TraitgenError, match=r"randint bound must be at most 2\*\*64"):
            a.randint(n)
        with pytest.raises(TraitgenError, match=r"randint bound must be at most 2\*\*64"):
            Lockstep.spawned(a, 0, 2).randint(n)
    with pytest.raises(TraitgenError, match="randint bound must be positive"):
        Lockstep.spawned(a, 0, 2).randint(np.array([3, 0], dtype=np.uint64))


def test_shuffle_is_deterministic_and_a_permutation() -> None:
    items1 = list(range(30))
    items2 = list(range(30))
    Rng(5).shuffle(items1)
    Rng(5).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(30))
    assert items1 != list(range(30))


def test_frozen_regression_values() -> None:
    # pins the documented generator so accidental algorithm changes fail loudly
    rng = Rng(42)
    assert [rng.next_uint64() for _ in range(3)] == [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
    ]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 40))
@example(seed=0, n=3)
@example(seed=2 ** 64 - 1, n=40)
def test_vector_splitmix_equals_the_scalar_outputs(seed, n) -> None:
    block = _splitmix_range(seed, n)
    assert block.dtype == np.uint64 and block.shape == (n,)
    assert [int(z) for z in block] == [_splitmix_at(seed, j) for j in range(n)]


# bounds that exercise the rejection rule: 2**63 + 1 rejects about half of
# all draws, 2**64 - 1 rejects one value, 1 and powers of two accept every draw
_BOUNDS = (st.sampled_from([1, 2, 5, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1])
           | st.integers(1, 2 ** 64 - 1))
_OPS = st.one_of(
    st.tuples(st.sampled_from(["next_uint64", "random", "coin"])),
    st.tuples(st.just("randint"), _BOUNDS | st.just(2 ** 64)),
    st.tuples(st.just("randint_per_row"), st.lists(_BOUNDS, min_size=12, max_size=12)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 2 ** 40), n=st.integers(0, 12),
       draws=st.lists(st.tuples(_OPS, st.lists(st.booleans(), min_size=12, max_size=12)
                                | st.none()), max_size=25))
@example(seed=0, start=0, n=3, draws=[(("randint", 2 ** 63 + 1), None)] * 8)
@example(seed=2 ** 64 - 1, start=7, n=5,
         draws=[(("randint_per_row", [2 ** 63 + 1, 1, 2 ** 64 - 1] * 4), [True] * 12)] * 8)
def test_lockstep_streams_equal_the_scalar_streams(seed, start, n, draws) -> None:
    """Each lockstep stream draws the scalar values of ``spawn(start + j)`` and
    ends in its state, whichever subsets of streams draw in between."""
    rng = Rng(seed)
    lockstep = Lockstep.spawned(rng, start, n)
    scalar = [rng.spawn(start + j) for j in range(n)]
    assert lockstep.state.dtype == np.uint64 and lockstep.state.shape == (4, n)
    assert [lockstep.state[:, j].tolist() for j in range(n)] == [s._s for s in scalar]
    for (op, *bound), chosen in draws:
        rows = None if chosen is None else np.flatnonzero(chosen[:n])
        picked = range(n) if rows is None else rows.tolist()
        if op == "randint":
            got = lockstep.randint(bound[0], rows)
            expected = [scalar[j].randint(bound[0]) for j in picked]
        elif op == "randint_per_row":
            got = lockstep.randint(np.array([bound[0][j] for j in picked], dtype=np.uint64), rows)
            expected = [scalar[j].randint(bound[0][j]) for j in picked]
        else:
            got = getattr(lockstep, op)(rows)
            expected = [getattr(scalar[j], op)() for j in picked]
        assert got.dtype == (np.float64 if op == "random" else np.uint64)
        assert got.tolist() == expected
    assert [lockstep.state[:, j].tolist() for j in range(n)] == [s._s for s in scalar]
