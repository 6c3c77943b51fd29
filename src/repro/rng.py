"""Seeded random-number-stream management.

Every stochastic component of the library (PMF sampling, runtime availability
processes, iteration-time draws, randomized heuristics) draws from a
:class:`numpy.random.Generator`. To keep experiments reproducible across
replications and across parallel entities (one stream per simulated
processor), streams are derived from a root seed with
:class:`numpy.random.SeedSequence` spawning, which guarantees statistically
independent child streams.

The helpers here are thin but used pervasively; centralizing them keeps the
seeding discipline in one place.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "rng_stream", "ensure_rng", "rng_at"]

#: Default root seed used when a caller does not provide one. Chosen once so
#: that "no seed given" still yields reproducible library-level defaults.
DEFAULT_SEED = 20120521  # IPDPS 2012 workshop week

#: ``SeedSequence``'s default pool size, in 32-bit words.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """``n`` as 32-bit words, low word first; ``[0]`` for zero."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def rng_at(entropy: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """``default_rng(SeedSequence(entropy, spawn_key=spawn_key))``, faster.

    NumPy converts every spawn-key word from a Python int on each call.
    This hands it the assembled entropy instead, built as
    ``SeedSequence.get_assembled_entropy`` builds it: the entropy's 32-bit
    words, zero-padded to the pool size when there is a spawn key, then
    each key word's 32-bit words. The pool, the state and so every draw
    are the same.
    """
    words = _uint32_words(operator.index(entropy))
    if spawn_key:
        words.extend([0] * (_POOL_SIZE - len(words)))
        for word in spawn_key:
            words.extend(_uint32_words(word))
    return np.random.default_rng(
        np.random.SeedSequence(np.array(words, dtype=np.uint32))
    )


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a new PCG64 generator seeded with ``seed``.

    ``None`` falls back to :data:`DEFAULT_SEED` (deterministic), never to OS
    entropy: simulation experiments must be repeatable by default. Callers
    that genuinely want fresh entropy can construct their own generator.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` to a generator: pass through, seed an int, or default."""
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(rng)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from a root ``seed``.

    Used to give each simulated processor (or each replication) its own
    stream so that adding a processor does not perturb the draws seen by the
    others.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of streams: {n}")
    # The same streams as ``SeedSequence(seed).spawn(n)``.
    entropy = DEFAULT_SEED if seed is None else seed
    return [rng_at(entropy, (i,)) for i in range(n)]


def rng_stream(seed: int | None) -> Iterator[np.random.Generator]:
    """Yield an unbounded sequence of independent generators.

    Convenient for replication loops of unknown length::

        for rep, rng in zip(range(reps), rng_stream(seed)):
            ...
    """
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    while True:
        (child,) = root.spawn(1)
        yield np.random.default_rng(child)
