"""Deterministic seed tree for serial and parallel execution.

Every stochastic task in the pipeline — a stage-II replication, a cell of
the study grid, a validation run — needs its own independent random
stream, and the stream must not depend on *where* the task executes
(serial loop, process pool, future distributed backends). The historic
ad-hoc derivations (``base + 7919 * case``, ``base * 1_000_003 + rep``)
were arithmetic on the integer line, where different ``(root, index)``
pairs can land on the same seed and therefore replay the same draws.

A :class:`SeedTree` replaces them with :class:`numpy.random.SeedSequence`
spawn keys: a node is ``(root entropy, path)`` where the path is a tuple
of hashed components. Two nodes with different paths have different spawn
keys by construction, so their streams are statistically independent and
cannot collide the way integer arithmetic can. Path components may be
ints or strings (``tree.child("cell", "case2", "app1").child(rep)``), so
seeds are derived from *what* a task is, not from loop-index arithmetic.

``SeedTree(None)`` draws fresh OS entropy for the root — "no seed" means
a genuinely new experiment — while ``SeedTree(42)`` is fully
reproducible. Callers that want the library's deterministic default root
pass :data:`repro.rng.DEFAULT_SEED` explicitly.

This module is, next to :mod:`repro.rng`, the only place allowed to
touch ``numpy.random`` directly (lint rule ``RNG001``): the seed tree
*is* part of the seeding discipline.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..rng import rng_at

__all__ = ["SeedTree", "derive_seed", "encode_component"]

#: Number of 32-bit words in a derived seed (128 bits total).
_SEED_WORDS = 4

#: Memoized spawn-key words, keyed by the tagged component string. Fault
#: realization hashes the same few components thousands of times per run.
_WORDS: dict[str, int] = {}
#: The memo is dropped when it grows past this many entries.
_WORDS_LIMIT = 1 << 16


def encode_component(component: int | str) -> int:
    """Hash one path component to a stable 64-bit spawn-key word.

    Ints and strings are tagged before hashing so ``child(1)`` and
    ``child("1")`` denote different children. The hash (BLAKE2b) is
    stable across processes and Python versions — unlike built-in
    ``hash()``, which is salted per interpreter.
    """
    if isinstance(component, bool) or not isinstance(component, (int, str)):
        raise TypeError(
            f"seed-tree path components must be int or str, got "
            f"{type(component).__name__}"
        )
    tag = f"i:{component}" if isinstance(component, int) else f"s:{component}"
    word = _WORDS.get(tag)
    if word is None:
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        word = int.from_bytes(digest, "big")
        if len(_WORDS) >= _WORDS_LIMIT:
            _WORDS.clear()
        _WORDS[tag] = word
    return word


class SeedTree:
    """A node in the deterministic seed-derivation tree.

    The tree is value-like and cheap: nodes hold only the root entropy
    and the path of hashed components. Streams and integer seeds are
    derived on demand from the node's :class:`~numpy.random.SeedSequence`.
    """

    __slots__ = ("_entropy", "_path")

    def __init__(
        self,
        seed: int | None = None,
        *,
        _entropy: int | None = None,
        _path: tuple[int, ...] = (),
    ) -> None:
        if _entropy is not None:
            self._entropy = _entropy
        elif seed is None:
            # Fresh OS entropy: "no seed" means a new experiment, not a
            # silent replay of seed 0 (the bug this class fixes).
            entropy = np.random.SeedSequence().entropy
            assert entropy is not None
            self._entropy = int(entropy)
        else:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise TypeError(
                    f"seed must be an int or None, got {type(seed).__name__}"
                )
            self._entropy = seed
        self._path = _path

    # -------------------------------------------------------------- structure

    @property
    def entropy(self) -> int:
        """The root entropy shared by every node of this tree."""
        return self._entropy

    @property
    def spawn_key(self) -> tuple[int, ...]:
        """The node's path as SeedSequence spawn-key words."""
        return self._path

    def child(self, *path: int | str) -> "SeedTree":
        """The descendant node at ``path`` (components are ints/strings)."""
        if not path:
            raise ValueError("child() needs at least one path component")
        encoded = tuple(encode_component(c) for c in path)
        return SeedTree(_entropy=self._entropy, _path=self._path + encoded)

    # ------------------------------------------------------------- derivation

    def seed_sequence(self) -> np.random.SeedSequence:
        """The node's :class:`~numpy.random.SeedSequence`."""
        return np.random.SeedSequence(self._entropy, spawn_key=self._path)

    def seed(self) -> int:
        """A 128-bit integer seed for APIs that take plain int seeds.

        Derived from the node's seed sequence, so two distinct paths
        yield independent (and, with probability ``1 - 2^-128``,
        distinct) seeds.
        """
        words = self.seed_sequence().generate_state(_SEED_WORDS, np.uint32)
        value = 0
        for word in words:
            value = (value << 32) | int(word)
        return value

    def rng(self) -> np.random.Generator:
        """A PCG64 generator seeded at this node.

        The stream of ``default_rng(self.seed_sequence())``, built
        without converting the spawn key word by word.
        """
        return rng_at(self._entropy, self._path)

    # -------------------------------------------------------------- plumbing

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedTree):
            return NotImplemented
        return self._entropy == other._entropy and self._path == other._path

    def __hash__(self) -> int:
        return hash((self._entropy, self._path))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeedTree(entropy={self._entropy}, path={self._path})"


def derive_seed(seed: int | None, *path: int | str) -> int:
    """One-shot helper: the integer seed at ``path`` under root ``seed``.

    ``seed=None`` draws a fresh entropy root per call; pass an explicit
    root for reproducible derivation.
    """
    node = SeedTree(seed)
    return (node.child(*path) if path else node).seed()
