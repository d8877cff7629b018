"""Analysis utilities: PCA, k-means(++), exact t-SNE, correlation.

These replace the scikit-learn calls the paper's pipeline relies on (t-SNE
for Fig. 7, k-means for the KSMOTE baseline) — scikit-learn is unavailable
offline, and the algorithms are small enough to implement exactly.
"""

from repro.analysis.pca import pca
from repro.analysis.kmeans import assign_to_centers, kmeans, minibatch_kmeans
from repro.analysis.tsne import tsne
from repro.analysis.correlation import (
    StreamingCorrelation,
    correlation_with_vector,
)

__all__ = [
    "pca",
    "kmeans",
    "minibatch_kmeans",
    "assign_to_centers",
    "tsne",
    "StreamingCorrelation",
    "correlation_with_vector",
]
