"""Backend fan-out for stage-I candidate evaluation.

Population- and enumeration-based RA heuristics score large batches of
candidate allocations per step; :func:`evaluate_allocations` is the one
path they all use. Serially it scores through the caller's (memoized)
:class:`~repro.ra.robustness.StageIEvaluator`; on a parallel backend it
chunks the candidates into :class:`~repro.exec.tasks.CandidateEvalTask`
descriptions, one evaluator rebuilt per chunk in the worker. Scores are
pure PMF algebra, so the two paths are bit-for-bit identical.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from .backends import ExecutionBackend, SerialBackend
from .tasks import CandidateEvalTask, encode_assignments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ra.robustness import StageIEvaluator
    from ..system import ProcessorGroup

__all__ = ["evaluate_allocations"]

#: Chunks submitted per worker in one fan-out (pipelining headroom).
_CHUNKS_PER_WORKER = 2


def evaluate_allocations(
    evaluator: "StageIEvaluator",
    candidates: Sequence[Mapping[str, "ProcessorGroup"]],
    backend: ExecutionBackend | None = None,
) -> list[float]:
    """phi_1 of each candidate assignment, in candidate order.

    ``candidates`` are app-name -> group mappings (not necessarily
    validated ``Allocation`` objects — heuristic intermediates are
    allowed). With a parallel backend the candidates are split into at
    most ``workers * 2`` chunks; anything smaller than one chunk per
    worker stays serial, where the evaluator's shared cache wins.
    """
    if not candidates:
        return []
    if (
        backend is None
        or isinstance(backend, SerialBackend)
        or backend.workers <= 1
        or len(candidates) < 2 * backend.workers
    ):
        return [evaluator.joint_probability(dict(c)) for c in candidates]
    n_chunks = min(len(candidates), backend.workers * _CHUNKS_PER_WORKER)
    bounds = [
        (len(candidates) * k) // n_chunks for k in range(n_chunks + 1)
    ]
    tasks = [
        CandidateEvalTask(
            batch=evaluator.batch,
            system=evaluator.system,
            deadline=evaluator.deadline,
            candidates=tuple(
                encode_assignments(dict(c))
                for c in candidates[lo:hi]
            ),
        )
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    scores: list[float] = []
    for chunk_scores in backend.run_tasks(tasks):
        scores.extend(chunk_scores)
    return scores
