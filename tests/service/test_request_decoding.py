"""``dataset_from_json``: the wire format's numeric block, decoded in one call.

JSON has no NaN literal, so clients send missing numeric cells as ``null``.
The decoder used to rewrite every cell (``None`` → ``np.nan``) before the
``float64`` conversion; the conversion maps ``None`` to NaN by itself, so the
rewrite is gone.  These tests pin that the arrays — NaN bit patterns
included, since the dataset fingerprint hashes them — are the ones the
rewrite built, and that blocks the conversion cannot read are still 400s.
"""

import numpy as np
import pytest

from repro.service.http import ServiceError, dataset_from_json


def _rewritten(numeric):
    """The per-cell rewrite the decoder applied before the conversion."""
    return [
        [np.nan if value is None else value for value in row]
        if isinstance(row, list)
        else row
        for row in numeric
    ]


@pytest.mark.parametrize(
    "numeric",
    [
        [[1.5, None], [None, 2], [3, 4.25]],
        [[None, None], [None, None], [None, None]],
        [[True, False], [1, 0.5], [False, None]],
        [["1.5", "2"], ["-3e2", "nan"], ["inf", None]],
        [1, None, 3.25],
        [None, None, None],
        [[None], [7], [None]],
    ],
    ids=[
        "null-cells", "all-null", "booleans", "numeric-strings", "1-D",
        "1-D-all-null", "one-column",
    ],
)
def test_numeric_block_matches_the_per_cell_rewrite(numeric):
    payload = {"name": "wire", "target": ["a", "b", "a"], "numeric": numeric}
    dataset = dataset_from_json(payload)
    expected = np.asarray(_rewritten(numeric), dtype=np.float64)
    if expected.ndim == 1:
        expected = expected.reshape(-1, 1)
    assert dataset.numeric.dtype == expected.dtype
    assert dataset.numeric.shape == expected.shape
    assert dataset.numeric.tobytes() == expected.tobytes()
    # The identity of the data, so the answer's store context, is unchanged.
    rewritten = dataset_from_json({**payload, "numeric": _rewritten(numeric)})
    assert dataset.fingerprint == rewritten.fingerprint


@pytest.mark.parametrize(
    "numeric",
    [
        [[1, 2], [3], [4, 5]],
        [[None, 1], [2], [3, None]],
        [["x"], ["y"], ["z"]],
        [[{"a": 1}], [2], [3]],
        [[[1, 2]], [3], [4]],
    ],
    ids=["ragged", "ragged-with-null", "non-numeric", "object-cell", "nested"],
)
def test_unreadable_numeric_block_is_a_400(numeric):
    with pytest.raises(ServiceError) as excinfo:
        dataset_from_json({"target": [0, 1, 0], "numeric": numeric})
    assert excinfo.value.status == 400
    assert "invalid dataset" in str(excinfo.value)
