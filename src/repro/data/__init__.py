"""Datasets: synthetic generators, paper-dataset analogues, ground truth.

The paper evaluates on ten open-source datasets (Table 2). Those files
are not available offline, so this package generates *analogues* that
match each dataset's dimensionality and distributional character —
clustered image descriptors, strongly correlated time series, heavy-
tailed text embeddings — at a scaled-down size suitable for a laptop.
Pruning behaviour and load-balance effects depend on exactly those
properties, which is why the shapes of the paper's results survive the
substitution (see DESIGN.md).
"""

from repro.data.datasets import (
    DATASET_REGISTRY,
    Dataset,
    DatasetSpec,
    available_datasets,
    load_dataset,
)
from repro.data.ground_truth import exact_knn, recall_at_k
from repro.data.loaders import read_fvecs, read_ivecs, write_fvecs, write_ivecs
from repro.data.synthetic import (
    correlated_walk,
    gaussian_blobs,
    heavy_tailed_embeddings,
    perturbed_queries,
    uniform_gaussian,
)

__all__ = [
    "DATASET_REGISTRY",
    "Dataset",
    "DatasetSpec",
    "available_datasets",
    "correlated_walk",
    "exact_knn",
    "gaussian_blobs",
    "heavy_tailed_embeddings",
    "load_dataset",
    "perturbed_queries",
    "read_fvecs",
    "read_ivecs",
    "recall_at_k",
    "uniform_gaussian",
    "write_fvecs",
    "write_ivecs",
]
