"""The fast seeded streams equal numpy's canonical ``SeedSequence`` streams.

:func:`repro.rng.rng_at` (behind :meth:`SeedTree.rng` and
:func:`repro.rng.spawn_rngs`) hands numpy a pre-assembled entropy array in
place of ``(entropy, spawn_key)``. Each stream is compared with
``default_rng(SeedSequence(entropy, spawn_key=path))`` by its full bit
generator state and its first draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SeedTree
from repro.rng import rng_at, spawn_rngs

entropies = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**130),
)
words = st.one_of(
    st.integers(0, 9), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)
)
paths = st.lists(words, max_size=5).map(tuple)
components = st.lists(
    st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=4
)


def canonical(entropy, path=()):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=path))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(4), want.random(4))


@settings(max_examples=200, deadline=None)
@given(entropies, paths)
def test_rng_at_is_the_canonical_stream(entropy, path):
    assert_same_stream(rng_at(entropy, path), canonical(entropy, path))


@pytest.mark.parametrize("entropy", [0, 1, 2012, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3])
@pytest.mark.parametrize("path", [(), (0,), (5, 2**33), (2**64 - 1, 0, 7)])
def test_rng_at_edge_words(entropy, path):
    assert_same_stream(rng_at(entropy, path), canonical(entropy, path))


@settings(max_examples=100, deadline=None)
@given(entropies, components)
def test_seed_tree_rng_is_its_seed_sequence_stream(entropy, path):
    node = SeedTree(entropy)
    if path:
        node = node.child(*path)
    assert_same_stream(node.rng(), np.random.default_rng(node.seed_sequence()))
    assert_same_stream(node.rng(), canonical(entropy, node.spawn_key))


@settings(max_examples=50, deadline=None)
@given(entropies, st.integers(0, 6))
def test_spawn_rngs_are_the_spawned_children(seed, n):
    root = np.random.SeedSequence(seed)
    want = [np.random.default_rng(child) for child in root.spawn(n)]
    got = spawn_rngs(seed, n)
    assert len(got) == n
    for g, w in zip(got, want):
        assert_same_stream(g, w)


def test_negative_entropy_still_raises():
    with pytest.raises(ValueError):
        SeedTree(-1).rng()
    with pytest.raises(ValueError):
        spawn_rngs(-1, 2)
    with pytest.raises(ValueError):
        rng_at(-5, (1,))
