"""Fitting is row-order invariant: permuted rows give the same model bytes.

The datasets hold twins, rows that agree on the group, x, y, z and the
outcome and differ only in ``dist``.  Such rows are ordered by ``dist`` alone
before any seeded draw, so a permutation that swaps them must not change
which rows a bootstrap, subsample or honest split takes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from reachmap import model_entry, serialize_model
from test_batch_predict import SMALL

GRID = st.sampled_from([0.0, 0.1, 0.2, 0.3])


@st.composite
def dist_twins(draw):
    """6-12 coarse-grid rows per group, plus 1-8 twins of drawn rows."""
    rows = []
    for group in (0, 1):
        rows += draw(st.lists(
            st.tuples(GRID, GRID, GRID, GRID, st.just(group), st.sampled_from([1.0, 1.5, 2.0])),
            min_size=6, max_size=12,
        ))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=8)):
        x, y, z, dist, group, outcome = rows[i]
        rows.append((x, y, z, dist + draw(st.sampled_from([0.05, 0.15])), group, outcome))
    arr = np.array(rows)
    return make_dataset(arr[:, :4], arr[:, 4], arr[:, 5])


@pytest.mark.parametrize("kind", tuple(SMALL))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_permuted_rows_fit_the_same_model(kind, data):
    d = data.draw(dist_twins())
    perm = np.array(data.draw(st.permutations(range(len(d)))))
    seed = data.draw(st.integers(0, 2**16))
    entry = model_entry(kind, **SMALL[kind])
    assert serialize_model(entry.fit(d.subset(perm), seed)) == serialize_model(entry.fit(d, seed))
