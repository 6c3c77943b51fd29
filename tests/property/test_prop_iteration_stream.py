"""Property tests of the shared iteration stream (hypothesis).

Every technique of a replication reads the same per-worker iteration
times from one :class:`IterationStream`. That is only exact because
:meth:`IterationTimeModel.draw` is split-invariant, and only cheap because
the stream draws nothing past the furthest position any reader took.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import IterationTimeModel
from repro.sim import IterationStream

CVS = st.sampled_from([0.0, 0.1, 1.0, 5.0])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), max_size=8),
    cv=CVS,
    seed=SEEDS,
)
def test_split_draws_concatenate_to_one_draw(sizes, cv, seed):
    model = IterationTimeModel(mean=2.5, cv=cv)
    split_rng = np.random.default_rng(seed)
    whole_rng = np.random.default_rng(seed)
    parts = [model.draw(k, split_rng) for k in sizes]
    whole = model.draw(sum(sizes), whole_rng)
    assert np.concatenate([np.empty(0), *parts]).tobytes() == whole.tobytes()
    assert split_rng.bit_generator.state == whole_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=30),
        ),
        max_size=25,
    ),
    cv=CVS,
    seed=SEEDS,
)
def test_shared_stream_readers_agree_and_never_overdraw(reads, cv, seed):
    model = IterationTimeModel(mean=1.0, cv=cv)
    stream = IterationStream(np.random.default_rng(seed))
    cursors = [0, 0, 0, 0]
    taken = []
    for who, n in reads:
        at = cursors[who]
        taken.append((at, stream.take(at, n, model).copy()))
        cursors[who] += n
    assert stream.filled == max(cursors)
    expected = model.draw(stream.filled, np.random.default_rng(seed))
    for at, values in taken:
        assert values.tobytes() == expected[at : at + len(values)].tobytes()
