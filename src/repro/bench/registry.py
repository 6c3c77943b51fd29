"""The ``@bench`` registry and the measurement harness.

A benchmark is a plain zero-argument callable registered under a stable
name::

    from repro.bench import bench

    @bench("pmf-convolve", tolerance=0.30, description="...")
    def pmf_convolve() -> None:
        ...

Names use hyphens, not dots — dotted names would collide with the
observability metric namespaces the ``OBS102`` lint rule polices.

:func:`run_benchmark` measures one spec with the best-of-N convention the
repo's pytest benchmarks already use (best suppresses scheduler noise;
the mean is kept for stability diagnostics). Timing goes through
:func:`repro.obs.prof.best_of` — lint rule ``OBS002`` confines raw clock
reads to ``repro.obs`` — and each measurement runs under a ``bench.case``
span so a traced bench run shows up in profiles like any other work.

The results are plain measurement dicts; :mod:`repro.bench.store` wraps
them with an environment fingerprint and persists them, and
:mod:`repro.bench.compare` judges them against history.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from ..errors import BenchError
from ..obs import best_of, span

__all__ = [
    "BENCHMARKS",
    "BenchSpec",
    "DEFAULT_ROUNDS",
    "DEFAULT_TOLERANCE",
    "bench",
    "all_benchmarks",
    "get_benchmark",
    "run_benchmark",
]

#: Default regression tolerance: a run is flagged when it is more than
#: 25% slower than its baseline. Wall-clock benchmarks on shared CI
#: runners need slack; per-benchmark overrides tighten or loosen it.
DEFAULT_TOLERANCE = 0.25

#: Default timing rounds per measurement (best-of).
DEFAULT_ROUNDS = 3

#: Benchmark names: hyphenated lowercase tokens ("pmf-convolve"). No dots
#: — those belong to the observability metric namespaces (OBS102).
_NAME_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: a callable plus its regression policy."""

    name: str
    fn: Callable[[], object]
    tolerance: float = DEFAULT_TOLERANCE
    rounds: int = DEFAULT_ROUNDS
    description: str = ""


#: The registry, keyed by benchmark name. Populated by :func:`bench`
#: decorators at import time (see :mod:`repro.bench.workloads`).
BENCHMARKS: dict[str, BenchSpec] = {}


def bench(
    name: str,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    rounds: int = DEFAULT_ROUNDS,
    description: str = "",
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Register a zero-argument callable as a named benchmark."""
    if not _NAME_RE.match(name):
        raise BenchError(
            f"benchmark name {name!r} must be hyphenated lowercase "
            "tokens, e.g. 'pmf-convolve'"
        )
    if tolerance <= 0:
        raise BenchError(
            f"benchmark {name!r}: tolerance must be positive, got {tolerance}"
        )
    if rounds < 1:
        raise BenchError(
            f"benchmark {name!r}: need >= 1 round, got {rounds}"
        )

    def register(fn: Callable[[], object]) -> Callable[[], object]:
        if name in BENCHMARKS:
            raise BenchError(f"benchmark {name!r} is already registered")
        BENCHMARKS[name] = BenchSpec(
            name=name,
            fn=fn,
            tolerance=tolerance,
            rounds=rounds,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
        )
        return fn

    return register


def all_benchmarks() -> list[BenchSpec]:
    """Every registered benchmark, sorted by name (workloads imported)."""
    from . import workloads  # noqa: F401  (import populates the registry)

    return [BENCHMARKS[name] for name in sorted(BENCHMARKS)]


def get_benchmark(name: str) -> BenchSpec:
    """The spec registered under ``name``; raises with the known names."""
    specs = {spec.name: spec for spec in all_benchmarks()}
    if name not in specs:
        known = ", ".join(sorted(specs)) or "<none>"
        raise BenchError(f"no benchmark {name!r} (known: {known})")
    return specs[name]


def run_benchmark(
    spec: BenchSpec, *, rounds: int | None = None
) -> dict[str, object]:
    """Measure one benchmark; returns a JSON-ready measurement.

    One untimed warmup call absorbs first-call costs (imports, cache
    fills), then ``rounds`` timed calls (default: the spec's) yield the
    best and mean wall seconds. The measurement runs inside a
    ``bench.case`` span so traced bench runs remain profile-visible.
    """
    n = rounds if rounds is not None else spec.rounds
    if n < 1:
        raise BenchError(f"need >= 1 round, got {n}")
    with span("bench.case", benchmark=spec.name, rounds=n):
        spec.fn()  # warmup
        best, mean = best_of(spec.fn, rounds=n)
    return {
        "name": spec.name,
        "best_s": best,
        "mean_s": mean,
        "rounds": n,
        "tolerance": spec.tolerance,
    }
