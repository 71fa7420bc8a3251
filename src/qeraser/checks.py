"""Fast self-check suite behind the `check` CLI subcommand.

Each check recomputes one headline identity of the simulator from scratch
and reports its worst residual. The suite is a smoke test for installed
copies; the full test suite lives in tests/.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, core, nchannel, twoslit
from .marker import SQRT_HALF, erasure_basis, which_path_basis


class CheckResult(NamedTuple):
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _bright_dark() -> float:
    dist = nchannel.detector_probabilities(
        nchannel.final_state_bare(nchannel.default_config(10))
    )
    expected = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
    return float(np.max(np.abs(dist.probabilities - expected)))


def _marked_uniform() -> float:
    worst = 0.0
    for n in (2, 4, 6, 10):
        dist = nchannel.detector_probabilities(
            nchannel.final_state_marked(nchannel.default_config(n))
        )
        worst = max(worst, float(np.max(np.abs(dist.probabilities - 1.0 / n))))
    return worst


def _eraser_recovery() -> float:
    state = nchannel.final_state_marked(nchannel.default_config(10))
    basis = erasure_basis(0.0)
    plus = nchannel.conditioned_distribution(state, basis.plus).probabilities
    minus = nchannel.conditioned_distribution(state, basis.minus).probabilities
    odd = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
    even = np.array([0.0 if j % 2 == 1 else 0.2 for j in range(1, 11)])
    return max(
        float(np.max(np.abs(plus - odd))), float(np.max(np.abs(minus - even)))
    )


def _delayed_definiteness() -> float:
    state = nchannel.final_state_marked(nchannel.default_config(10))
    worst = 0.0
    for j in range(1, 11):
        result = nchannel.delayed_marker_state(state, j)
        target = result.fidelity_dplus if j % 2 == 1 else result.fidelity_dminus
        worst = max(worst, abs(result.purity - 1.0), abs(target - 1.0))
    return worst


def _screen_definiteness() -> float:
    grid = twoslit.default_grid()
    weights, conditionals = core.condition_on_system(twoslit.marked_state(grid))
    # plus(theta_x) for every bin, as marker.erasure_basis builds it.
    cos, sin = np.cos(grid.theta_x), np.sin(grid.theta_x)
    targets = np.stack([cos + 1j * sin, cos - 1j * sin], axis=1) * SQRT_HALF
    overlaps = np.einsum("ij,ij->i", targets.conj(), conditionals)
    fidelity = np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)
    return float(np.max(np.abs(fidelity[weights > 0.0] - 1.0)))


def _complementarity() -> float:
    grid = twoslit.default_grid()
    # Held for the whole check, so every pattern below reuses this one state.
    screen = twoslit.marked_state(grid)
    washed = twoslit.pattern_marked_unconditioned(grid).probabilities
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
        plus, p_plus = twoslit.pattern_conditioned(grid, float(theta), "plus")
        minus, p_minus = twoslit.pattern_conditioned(grid, float(theta), "minus")
        mixed = p_plus * plus.probabilities + p_minus * minus.probabilities
        worst = max(worst, float(np.max(np.abs(mixed - washed))))
    del screen
    return worst


def _ordering_invariance() -> float:
    worst = 0.0
    for n in (2, 4, 6, 10):
        state = nchannel.final_state_marked(nchannel.default_config(n))
        for theta in np.linspace(0.0, math.pi, 8, endpoint=False):
            worst = max(
                worst,
                analysis.ordering_invariance_residual(state, erasure_basis(float(theta))),
            )
        worst = max(
            worst, analysis.ordering_invariance_residual(state, which_path_basis())
        )
    screen = twoslit.marked_state(twoslit.default_grid())
    worst = max(worst, analysis.ordering_invariance_residual(screen, erasure_basis(0.7)))
    worst = max(worst, analysis.ordering_invariance_residual(analysis.epr_state(), which_path_basis()))
    return worst


def _spin_pair_tables() -> float:
    same = np.diag([0.5, 0.5])
    crossed = np.full((2, 2), 0.25)
    worst = 0.0
    for pair, expected in ((("z", "z"), same), (("x", "x"), same), (("z", "x"), crossed)):
        table = analysis.epr_correlation_table(*pair)
        worst = max(worst, float(np.max(np.abs(table.probabilities - expected))))
    worst = max(worst, abs(analysis.mutual_information(analysis.epr_correlation_table("z", "x"))))
    return worst


def _fringe_width() -> float:
    grid = twoslit.default_grid()
    pattern, _ = twoslit.pattern_conditioned(grid, 0.0, "plus")
    probs = pattern.probabilities
    peaks = [
        k
        for k in range(1, grid.bins - 1)
        if probs[k] > probs[k - 1] and probs[k] > probs[k + 1]
    ]
    spacings = np.diff(grid.positions[peaks])
    return float(np.max(np.abs(spacings - grid.geometry.fringe_width)))


_CHECKS: list[tuple[str, Callable[[], float], float]] = [
    ("bright/dark channels (n=10 bare)", _bright_dark, core.ATOL),
    ("marker washes interference (uniform 1/n)", _marked_uniform, core.ATOL),
    ("eraser recovery (odd/even split)", _eraser_recovery, core.ATOL),
    ("delayed definiteness (channels)", _delayed_definiteness, core.ATOL),
    ("delayed definiteness (screen)", _screen_definiteness, core.ATOL),
    ("complementary patterns sum to envelope", _complementarity, core.ATOL),
    ("measurement-ordering invariance", _ordering_invariance, core.ATOL),
    ("spin-pair correlation tables", _spin_pair_tables, core.ATOL),
    ("fringe width equals wavelength*L/d", _fringe_width, twoslit.default_geometry().dx),
]


def run_checks() -> list[CheckResult]:
    """Run every registered invariant check and collect the residuals."""
    return [CheckResult(name, fn(), tol) for name, fn, tol in _CHECKS]
