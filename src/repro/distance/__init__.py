"""Distance computation kernels and partial (per-dimension-block) distances.

This package implements the mathematical core that HARMONY's
dimension-level pruning relies on (paper Section 3.1):

- full-vector metrics (squared Euclidean, inner product, cosine),
- batched pairwise kernels used by the IVF index and the execution engine,
- partial distances restricted to a dimension slice, together with the
  monotone accumulation rules and the Cauchy-Schwarz bound that make
  early-stop pruning *lossless* for both L2 and inner-product search.
"""

from repro.distance.metrics import (
    Metric,
    cosine_similarity,
    inner_product,
    normalize_rows,
    resolve_metric,
    squared_l2,
)
from repro.distance.kernels import (
    pairwise_inner_product,
    pairwise_squared_l2,
    top_k_smallest,
)
from repro.distance.partial import (
    DimensionSlices,
    partial_inner_product,
    partial_squared_l2,
    slice_norms,
)

__all__ = [
    "Metric",
    "DimensionSlices",
    "cosine_similarity",
    "inner_product",
    "normalize_rows",
    "pairwise_inner_product",
    "pairwise_squared_l2",
    "partial_inner_product",
    "partial_squared_l2",
    "resolve_metric",
    "slice_norms",
    "squared_l2",
    "top_k_smallest",
]
