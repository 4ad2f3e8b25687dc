"""Information loss of generalized QI descriptions.

Per attribute the loss is the normalized spread of the recoded value: range
width over domain width for numeric attributes, the LCA's leaf share for
categorical ones (zero when the LCA is itself a leaf). Class loss is the
weighted sum over QI attributes; a release is scored by the size-weighted
mean over its classes.
"""
from __future__ import annotations

import numpy as np

from .data import DataError, NUMERIC
from .release import Release


def ail(release: Release) -> float:
    """Average information loss: class losses weighted by class size, read
    from `Release.class_extents` and `class_counts` with the schema's weights.

    Weighted parts are added in schema order and class losses in class
    order (a running sum, not numpy's pairwise one), so the result is bit
    for bit that of summing class by class.
    """
    if not release.ecs:
        raise DataError("release has no classes")
    schema = release.schema
    loss = np.zeros(len(release.ecs))
    for w, attr, (lo, hi) in zip(schema.qi_weights(), schema.qi_attributes, release.class_extents):
        if attr.kind == NUMERIC:
            # The width in exact arithmetic first: the bounds may be JSON integers.
            part = (hi - lo) / float(attr.hi - attr.lo)
        else:
            leaves = hi - lo + 1
            part = np.where(leaves == 1, 0.0, leaves / attr.hierarchy.n_leaves)
        loss += w * part
    sizes = release.class_counts.sum(axis=1)
    return float(np.cumsum(sizes * loss)[-1] / release.n_rows)
