"""Weight-update module: λ optimisation on the simplex (Eq. 17–24).

Fixing the GNN parameters, the λ subproblem is

.. math::

    \\min_λ \\; α·Σ_i λ_i D_i + ||λ||_2^2
    \\quad \\text{s.t.} \\quad λ_i ≥ 0, \\; Σ_i λ_i = 1,

whose KKT conditions give the closed form
``λ_i = max(0, (−b − α·D_i) / 2)`` with ``b`` chosen so the weights sum to 1
(Eq. 22–24).  That is exactly the Euclidean projection of the vector
``−α·D/2`` onto the probability simplex, so the library implements the
standard simplex projection (:func:`project_to_simplex`); the paper's
sorting procedure lives in ``tests/oracles.py::solve_kkt_eq24``, and a
property test asserts they agree.

**Documented paper inconsistency.** The text around Eq. (14) argues large
disparities ``D_i`` should receive *large* weights, but the optimisation
above provably assigns them *small* weights (it is a minimisation of
``λ·D``).  We follow the math by default and expose the text's intent as
``WeightUpdater(prefer_high_disparity=True)`` (projection of ``+α·D/2``),
which the ablation benchmark compares.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_to_simplex", "WeightUpdater"]


def project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Uses the sorting algorithm of Held, Wolfe & Crowder (1974): find the
    largest ``ρ`` with ``v_(ρ) − (Σ_{j≤ρ} v_(j) − 1)/ρ > 0`` and subtract
    that threshold.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("cannot project an empty vector")
    sorted_desc = np.sort(values)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    rho_candidates = sorted_desc - cumulative / np.arange(1, values.size + 1)
    rho = int(np.nonzero(rho_candidates > 0)[0][-1]) + 1
    threshold = cumulative[rho - 1] / rho
    return np.maximum(values - threshold, 0.0)


class WeightUpdater:
    """Stateful λ manager used by the Fairwos trainer.

    Parameters
    ----------
    num_attributes:
        Number of pseudo-sensitive attributes I; λ starts uniform (Algorithm
        1, line 2).
    alpha:
        Regularisation strength α of Eq. (15).
    prefer_high_disparity:
        False (default) follows the paper's math — small weight on large
        disparities; True follows the paper's *text* — large weight on large
        disparities.  See the module docstring.
    """

    def __init__(
        self,
        num_attributes: int,
        alpha: float,
        prefer_high_disparity: bool = False,
    ) -> None:
        if num_attributes < 1:
            raise ValueError(f"num_attributes must be >= 1, got {num_attributes}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.prefer_high_disparity = prefer_high_disparity
        self.weights = np.full(num_attributes, 1.0 / num_attributes)

    def update(self, disparities: np.ndarray) -> np.ndarray:
        """Recompute λ from the current per-attribute disparities ``D_i``.

        Equivalent to the paper's Eq. 24 procedure
        (``tests/oracles.py::solve_kkt_eq24``, verified by tests) but uses
        the simplex projection directly: the minimiser of
        ``α·λ·D + ||λ||²`` on the simplex is ``proj_simplex(−α·D/2)``.
        """
        disparities = np.asarray(disparities, dtype=np.float64).reshape(-1)
        if disparities.shape != self.weights.shape:
            raise ValueError(
                f"expected {self.weights.size} disparities, got {disparities.size}"
            )
        sign = 1.0 if self.prefer_high_disparity else -1.0
        self.weights = project_to_simplex(sign * self.alpha * disparities / 2.0)
        return self.weights
