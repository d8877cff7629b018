"""The paper's random 50% / 25% / 25% train / validation / test split."""

from __future__ import annotations

import numpy as np

__all__ = ["random_split_masks"]

TRAIN_FRACTION = 0.5
VAL_FRACTION = 0.25


def random_split_masks(
    num_nodes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random node partition into boolean (train, val, test) masks.

    ``round(0.5·N)`` nodes train, ``round(0.25·N)`` validate and the rest
    test.  Raises ``ValueError`` when a split would be empty (fewer than 4
    nodes), which no model could be selected or evaluated on.
    """
    n_train = int(round(TRAIN_FRACTION * num_nodes))
    n_val = int(round(VAL_FRACTION * num_nodes))
    sizes = (n_train, n_val, num_nodes - n_train - n_val)
    if min(sizes) < 1:
        raise ValueError(
            f"a 50/25/25 split of {num_nodes} nodes leaves an empty split "
            f"(train/val/test {sizes[0]}/{sizes[1]}/{sizes[2]})"
        )
    order = rng.permutation(num_nodes)
    train_mask = np.zeros(num_nodes, dtype=bool)
    val_mask = np.zeros(num_nodes, dtype=bool)
    test_mask = np.zeros(num_nodes, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train : n_train + n_val]] = True
    test_mask[order[n_train + n_val :]] = True
    return train_mask, val_mask, test_mask
