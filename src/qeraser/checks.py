"""Fast self-check suite behind the `check` CLI subcommand.

Each check recomputes one headline identity of the simulator from scratch
and reports its worst residual. The suite is a smoke test for installed
copies; the full test suite lives in tests/.

Two sweeps are batched through analysis.joint_distributions: the
complementarity check reads its 32 erasure angles, both signs, from one
marker_first call over the screen, and the ordering check makes one call
per ordering over the nine bases of each channel state. The screen and
spin-pair residuals of the ordering check, and every other check, take
one basis or outcome at a time.
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


class _Inputs(NamedTuple):
    """The states and grid several checks share, built once per run."""

    marked: dict[int, core.PureState]  # final_state_marked(default_config(n)), n = 2, 4, 6, 10
    grid: twoslit.ScreenGrid  # default_grid()
    screen: core.PureState  # marked_state(grid); held, so every pattern reuses it


def _bright_dark(inputs: _Inputs) -> float:
    dist = nchannel.detector_probabilities(
        nchannel.final_state_bare(nchannel.default_config(10))
    )
    expected = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
    return float(np.max(np.abs(dist.probabilities - expected)))


def _marked_uniform(inputs: _Inputs) -> float:
    worst = 0.0
    for n, state in inputs.marked.items():
        dist = nchannel.detector_probabilities(state)
        worst = max(worst, float(np.max(np.abs(dist.probabilities - 1.0 / n))))
    return worst


def _eraser_recovery(inputs: _Inputs) -> float:
    state = inputs.marked[10]
    basis = erasure_basis(0.0)
    plus = nchannel.conditioned_distribution(state, basis.plus).probabilities
    minus = nchannel.conditioned_distribution(state, basis.minus).probabilities
    odd = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
    even = np.array([0.0 if j % 2 == 1 else 0.2 for j in range(1, 11)])
    return max(
        float(np.max(np.abs(plus - odd))), float(np.max(np.abs(minus - even)))
    )


def _delayed_definiteness(inputs: _Inputs) -> float:
    state = inputs.marked[10]
    worst = 0.0
    for j in range(1, 11):
        result = nchannel.delayed_marker_state(state, j)
        target = result.fidelity_dplus if j % 2 == 1 else result.fidelity_dminus
        worst = max(worst, abs(result.purity - 1.0), abs(target - 1.0))
    return worst


def _screen_definiteness(inputs: _Inputs) -> float:
    grid = inputs.grid
    weights, conditionals = core.condition_on_system(inputs.screen)
    # plus(theta_x) for every bin, as marker.erasure_basis builds it.
    cos, sin = np.cos(grid.theta_x), np.sin(grid.theta_x)
    targets = np.stack([cos + 1j * sin, cos - 1j * sin], axis=1) * SQRT_HALF
    overlaps = np.einsum("ij,ij->i", targets.conj(), conditionals)
    # Not clipped: a fidelity above one is a fault, and must show as a residual.
    fidelity = np.abs(overlaps) ** 2
    return float(np.max(np.abs(fidelity[weights > 0.0] - 1.0)))


def _complementarity(inputs: _Inputs) -> float:
    washed = twoslit.pattern_marked_unconditioned(inputs.grid).probabilities
    bases = [erasure_basis(float(t)) for t in np.linspace(0.0, math.pi, 32, endpoint=False)]
    worst = 0.0
    for table in analysis.joint_distributions(inputs.screen, bases, analysis.MARKER_FIRST):
        # Column m is branch_m * pattern_m, so this is the bits of
        # p_plus * plus + p_minus * minus from pattern_conditioned.
        mixed = table.probabilities[:, 0] + table.probabilities[:, 1]
        worst = max(worst, float(np.max(np.abs(mixed - washed))))
    return worst


def _ordering_invariance(inputs: _Inputs) -> float:
    bases = [erasure_basis(float(t)) for t in np.linspace(0.0, math.pi, 8, endpoint=False)]
    bases.append(which_path_basis())
    worst = 0.0
    for state in inputs.marked.values():
        first = analysis.joint_distributions(state, bases, analysis.MARKER_FIRST)
        second = analysis.joint_distributions(state, bases, analysis.SYSTEM_FIRST)
        worst = max(worst, *map(analysis._table_gap, first, second))
    worst = max(worst, analysis.ordering_invariance_residual(inputs.screen, erasure_basis(0.7)))
    worst = max(worst, analysis.ordering_invariance_residual(analysis.epr_state(), which_path_basis()))
    return worst


def _spin_pair_tables(inputs: _Inputs) -> float:
    same = np.diag([0.5, 0.5])
    crossed = np.full((2, 2), 0.25)
    worst = 0.0
    for pair, expected in ((("z", "z"), same), (("x", "x"), same), (("z", "x"), crossed)):
        table = analysis.epr_correlation_table(*pair)
        worst = max(worst, float(np.max(np.abs(table.probabilities - expected))))
    worst = max(worst, abs(analysis.mutual_information(analysis.epr_correlation_table("z", "x"))))
    return worst


def _fringe_width(inputs: _Inputs) -> float:
    grid = inputs.grid
    pattern, _ = twoslit.pattern_conditioned(grid, 0.0, "plus")
    p = pattern.probabilities
    peaks = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])) + 1
    spacings = np.diff(grid.positions[peaks])
    return float(np.max(np.abs(spacings - grid.geometry.fringe_width)))


_CHECKS: list[tuple[str, Callable[[_Inputs], float], float]] = [
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
    grid = twoslit.default_grid()
    marked = {n: nchannel.final_state_marked(nchannel.default_config(n)) for n in (2, 4, 6, 10)}
    inputs = _Inputs(marked, grid, twoslit.marked_state(grid))
    return [CheckResult(name, fn(inputs), tol) for name, fn, tol in _CHECKS]
