"""Acceptance suite: one test per headline criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; each line reports the worst observed residual.
"""

import math
import time

import numpy as np

from oracles import (
    bare_channel_probs,
    chi_square_pass,
    conditioned_screen_joint,
    csv_row,
    marked_channel_probs,
)
from qeraser import analysis
from qeraser.analysis import (
    SYSTEM_FIRST,
    epr_correlation_table,
    joint_distribution,
    mutual_information,
    ordering_invariance_residual,
    sample_events,
    sample_outcomes,
)
from qeraser.marker import erasure_basis, which_path_basis
from qeraser.nchannel import (
    conditioned_distribution,
    default_config,
    delayed_marker_state,
    detector_probabilities,
    final_state_bare,
    final_state_marked,
    random_config,
)
from qeraser.twoslit import (
    default_grid,
    delayed_marker_state_at,
    marked_state,
    pattern_conditioned,
    pattern_marked_unconditioned,
    visibility,
)

TOL = 1e-12


def report(number, name, residual, extra=""):
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS (residual {residual:.3e}{tail})")


def test_01_nchannel_bright_dark_fringes():
    expected = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
    detector_probabilities(final_state_bare(default_config(10)))  # warm-up
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        probs = detector_probabilities(final_state_bare(default_config(10))).probabilities
        best = min(best, time.perf_counter() - start)
    residual = float(np.max(np.abs(probs - expected)))
    assert residual < TOL
    assert best < 1e-3, f"runtime {best * 1e3:.3f} ms exceeds 1 ms"
    report(1, "n-channel bright/dark fringes", residual, f"{best * 1e6:.1f} us")


def test_02_marker_washes_interference():
    residual = 0.0
    for n in (2, 4, 6, 10):
        probs = detector_probabilities(final_state_marked(default_config(n))).probabilities
        residual = max(residual, float(np.max(np.abs(probs - 1.0 / n))))
    assert residual < TOL
    report(2, "marker washes interference", residual)


def test_03_eraser_recovery():
    state = final_state_marked(default_config(10))
    basis = erasure_basis(0.0)
    odd = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
    even = np.array([0.0 if j % 2 == 1 else 0.2 for j in range(1, 11)])
    plus = conditioned_distribution(state, basis.plus).probabilities
    minus = conditioned_distribution(state, basis.minus).probabilities
    residual = max(
        float(np.max(np.abs(plus - odd))), float(np.max(np.abs(minus - even)))
    )
    assert residual < TOL
    report(3, "eraser recovery (odd/even)", residual)


def test_04_delayed_definiteness_discrete():
    state = final_state_marked(default_config(10))
    residual = 0.0
    for j in range(1, 11):
        result = delayed_marker_state(state, j)
        fidelity = result.fidelity_dplus if j % 2 == 1 else result.fidelity_dminus
        residual = max(residual, abs(result.purity - 1.0), abs(fidelity - 1.0))
    assert residual < TOL
    report(4, "delayed definiteness (discrete)", residual)


def test_05_delayed_definiteness_continuous():
    grid = default_grid()
    residual = 0.0
    for k in range(grid.bins):
        result = delayed_marker_state_at(grid, k)
        residual = max(residual, abs(result.fidelity_dplus_thetax - 1.0))
    assert residual < TOL
    report(5, "delayed definiteness (continuous)", residual)


def test_06_complementary_patterns():
    grid = default_grid()
    geo = grid.geometry
    washed = pattern_marked_unconditioned(grid).probabilities
    start = time.perf_counter()
    sum_residual = 0.0
    form_residual = 0.0
    visibility_residual = 0.0
    for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
        theta = float(theta)
        plus, p_plus = pattern_conditioned(grid, theta, "plus")
        minus, p_minus = pattern_conditioned(grid, theta, "minus")
        mixed = p_plus * plus.probabilities + p_minus * minus.probabilities
        sum_residual = max(sum_residual, float(np.max(np.abs(mixed - washed))))
        for pattern, direction in ((plus, +1), (minus, -1)):
            joint = np.array(
                conditioned_screen_joint(
                    grid.positions, grid.envelope, grid.dx,
                    geo.d, geo.wavelength, geo.L, theta, direction,
                )
            )
            form_residual = max(
                form_residual,
                float(np.max(np.abs(pattern.probabilities - joint / joint.sum()))),
            )
            visibility_residual = max(visibility_residual, abs(visibility(pattern) - 1.0))
    elapsed = time.perf_counter() - start
    assert sum_residual < TOL
    assert form_residual < TOL
    assert visibility_residual < 1e-9
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"
    report(
        6, "complementary patterns", max(sum_residual, form_residual),
        f"visibility {visibility_residual:.1e}, {elapsed * 1e3:.0f} ms",
    )


def test_07_ordering_invariance():
    residual = 0.0
    for n in (2, 4, 6, 10):
        state = final_state_marked(default_config(n))
        residual = max(residual, ordering_invariance_residual(state, which_path_basis()))
        for theta in (0.0, 0.4, 1.3):
            residual = max(
                residual, ordering_invariance_residual(state, erasure_basis(theta))
            )
    residual = max(
        residual,
        ordering_invariance_residual(marked_state(default_grid()), erasure_basis(0.7)),
        ordering_invariance_residual(analysis.epr_state(), which_path_basis()),
    )
    for k in range(100):
        config = random_config(2 + (k % 11), seed=40_000 + k)
        state = final_state_marked(config)
        residual = max(
            residual, ordering_invariance_residual(state, erasure_basis(0.11 * k))
        )
    assert residual < TOL
    report(7, "ordering invariance", residual)


def test_08_spin_pair_analogy():
    same = np.diag([0.5, 0.5])
    crossed = np.full((2, 2), 0.25)
    residual = 0.0
    for pair, expected in ((("z", "z"), same), (("x", "x"), same), (("z", "x"), crossed)):
        table = epr_correlation_table(*pair)
        residual = max(residual, float(np.max(np.abs(table.probabilities - expected))))
    information = abs(mutual_information(epr_correlation_table("z", "x")))
    assert residual < TOL
    assert information < TOL
    report(8, "spin-pair correlation tables", max(residual, information))


def test_09_oracle_equivalence():
    residual = 0.0
    for k in range(100):
        config = random_config(2 + (k % 11), seed=70_000 + k)
        bare = detector_probabilities(final_state_bare(config)).probabilities
        marked = detector_probabilities(final_state_marked(config)).probabilities
        residual = max(
            residual,
            float(np.max(np.abs(bare - bare_channel_probs(config.thetas, config.phis)))),
            float(np.max(np.abs(marked - marked_channel_probs(config.thetas, config.phis)))),
        )
    assert residual < TOL
    report(9, "brute-force oracle equivalence", residual)


def test_10_sampler_statistics():
    start = time.perf_counter()
    channel_state = final_state_marked(default_config(10))
    grid = default_grid()
    scenario_tables = {
        "nchannel": joint_distribution(channel_state, erasure_basis(0.0), SYSTEM_FIRST),
        "twoslit": joint_distribution(marked_state(grid), erasure_basis(0.0), SYSTEM_FIRST),
        "epr": joint_distribution(analysis.epr_state(), erasure_basis(0.0), SYSTEM_FIRST),
    }
    worst_passes = 100
    for name, table in scenario_tables.items():
        flat = table.probabilities.reshape(-1)
        passes = 0
        for seed in range(1, 101):
            cells = sample_outcomes(table, 100_000, seed)
            observed = np.bincount(cells, minlength=flat.size)
            passes += chi_square_pass(flat, observed, quantile=0.999)
        assert passes >= 99, f"{name}: only {passes}/100 seeds passed"
        worst_passes = min(worst_passes, passes)

    labels = list(range(1, 11))
    log_a = sample_events(channel_state, erasure_basis(0.0), SYSTEM_FIRST, 100_000, 5, "s", labels)
    log_b = sample_events(channel_state, erasure_basis(0.0), SYSTEM_FIRST, 100_000, 5, "s", labels)
    bytes_a = "\n".join(map(csv_row, log_a)).encode()
    bytes_b = "\n".join(map(csv_row, log_b)).encode()
    assert bytes_a == bytes_b
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s"
    print(
        f"ACCEPTANCE 10 sampler statistics: PASS "
        f"(worst scenario {worst_passes}/100 seeds at the 0.999 level, {elapsed:.1f} s)"
    )


def test_11_fringe_width():
    grid = default_grid()
    pattern, _ = pattern_conditioned(grid, 0.0, "plus")
    probs = pattern.probabilities
    peaks = [
        k
        for k in range(1, grid.bins - 1)
        if probs[k] > probs[k - 1] and probs[k] > probs[k + 1]
    ]
    assert len(peaks) >= 2
    spacings = np.diff(grid.positions[peaks])
    residual = float(np.max(np.abs(spacings - grid.geometry.fringe_width)))
    assert residual < grid.dx
    report(11, "fringe width", residual, f"bin width {grid.dx:g}")
