"""Run configuration shared by the verification suite and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circlefun import CircleGrid


@dataclass(frozen=True)
class RunConfig:
    """Grid, window and tolerances for a run.

    tol_operator governs identities of truncated matrices on interior blocks;
    tol_function governs pointwise/boundary-function identities.  Both must be
    finite and positive.  eps_tail must be positive; inf turns tail-based
    column exclusion off.  seed, which seeds the randomized checks, must be >= 0.
    """

    grid_size: int = 4096
    mode_window: int = 64
    tol_operator: float = 1e-6
    tol_function: float = 1e-8
    eps_tail: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        CircleGrid(self.grid_size)  # raises on a size it does not accept
        if self.mode_window < 1:
            raise ValueError(f"mode_window must be >= 1, got {self.mode_window}")
        if 2 * self.mode_window + 1 > self.grid_size:
            raise ValueError("mode window exceeds grid capacity")
        for name in ("tol_operator", "tol_function"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.eps_tail > 0:
            raise ValueError(f"eps_tail must be positive, got {self.eps_tail}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def interior(self) -> int:
        return max(1, self.mode_window // 2)
