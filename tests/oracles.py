"""Independent brute-force oracles used to cross-check the simulator.

Everything here is written with scalar math/cmath loops on purpose: the
computations share no code path with the vectorized implementation under
test, so agreement is evidence rather than tautology. The reference
emitters at the end format one row or point per call, with str.format,
f-strings and json.dumps, where the package formats whole chunks with `%`.
`inner_product`, `tensor`, `splitmix64` and `csv_row` are the scalar forms
of operations the package has no public function for.
"""

import cmath
import json
import math
from xml.sax.saxutils import escape

import numpy as np
from scipy.stats import chi2

from qeraser import _svg
from qeraser.analysis import sample_outcomes
from qeraser.core import PureState
from qeraser.errors import DimensionMismatchError, NotNormalizedError

_MASK64 = (1 << 64) - 1


def inner_product(a, b):
    """<a|b> of two PureStates, conjugate-linear in a, by one complex sum."""
    if (a.system_dim, a.marker_dim) != (b.system_dim, b.marker_dim):
        raise DimensionMismatchError(
            f"incompatible dims {(a.system_dim, a.marker_dim)} vs {(b.system_dim, b.marker_dim)}"
        )
    return sum(x.conjugate() * y for x, y in zip(a.amplitudes.tolist(), b.amplitudes.tolist()))


def tensor(system, marker):
    """system (x) marker in system-major order, one product per amplitude.

    `system` is a marker-free PureState; `marker` is a marker-free PureState
    or a normalized 1- or 2-component vector.
    """
    if system.marker_dim != 1:
        raise DimensionMismatchError("system factor must be marker-free")
    if isinstance(marker, PureState):
        if marker.marker_dim != 1:
            raise DimensionMismatchError("marker factor must itself be a plain vector")
        factor = marker.amplitudes.tolist()
    else:
        factor = [complex(value) for value in np.asarray(marker).reshape(-1).tolist()]
        sq_norm = sum(abs(value) ** 2 for value in factor)
        if abs(sq_norm - 1.0) > 1e-12:
            raise NotNormalizedError(f"marker factor is not normalized: squared norm = {sq_norm!r}")
    if len(factor) not in (1, 2):
        raise DimensionMismatchError("marker factor must have dimension 1 or 2")
    amplitudes = [s * m for s in system.amplitudes.tolist() for m in factor]
    return PureState(system.system_dim, len(factor), np.array(amplitudes))


def splitmix64(seed, count):
    """The first `count` outputs of the splitmix64 stream, one Python int at a time.

    The specification in qeraser.rng's docstring: state_i = seed + i * gamma
    (i = 1, 2, ...) mod 2^64, then the two xor-shift-multiply rounds and a
    final xor-shift.
    """
    outputs = []
    for i in range(1, count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        outputs.append(z ^ (z >> 31))
    return outputs


def splitmix64_floats(seed, count):
    """Uniform doubles in [0, 1) from the top 53 bits of each splitmix64 output."""
    return [(word >> 11) / 2**53 for word in splitmix64(seed, count)]


def bare_channel_probs(thetas, phis):
    """Detector probabilities without a marker, by direct amplitude summation."""
    n = len(thetas)
    amps = [
        (cmath.exp(1j * t) + cmath.exp(1j * p)) / math.sqrt(2 * n)
        for t, p in zip(thetas, phis)
    ]
    probs = [abs(a) ** 2 for a in amps]
    total = sum(probs)
    return [p / total for p in probs]


def marked_channel_probs(thetas, phis):
    """Detector probabilities with a marker: per-path moduli, no cross term."""
    n = len(thetas)
    return [
        (abs(cmath.exp(1j * t)) ** 2 + abs(cmath.exp(1j * p)) ** 2) / (2 * n)
        for t, p in zip(thetas, phis)
    ]


def joint_channel_probs(thetas, phis, basis_theta):
    """Joint (detector, erasure outcome) table by direct summation.

    The erasure pair at angle b is (e^{ib}, +-e^{-ib})/sqrt(2); the joint
    amplitude on (j, +-) is (e^{i(theta_j - b)} +- e^{i(phi_j + b)}) / sqrt(4n).
    """
    n = len(thetas)
    table = []
    for t, p in zip(thetas, phis):
        a_plus = (cmath.exp(1j * (t - basis_theta)) + cmath.exp(1j * (p + basis_theta))) / math.sqrt(4 * n)
        a_minus = (cmath.exp(1j * (t - basis_theta)) - cmath.exp(1j * (p + basis_theta))) / math.sqrt(4 * n)
        table.append([abs(a_plus) ** 2, abs(a_minus) ** 2])
    return table


def conditioned_screen_joint(positions, envelope, dx, d, wavelength, L, theta, sign):
    """Unnormalized branch pattern 0.5 psi^2 [1 +- cos(2 pi x d / (wl L) - 2 theta)] dx."""
    out = []
    for x, psi in zip(positions, envelope):
        phase = 2.0 * math.pi * x * d / (wavelength * L) - 2.0 * theta
        out.append(0.5 * psi * psi * (1.0 + sign * math.cos(phase)) * dx)
    return out


def marked_screen_amplitudes(envelope, theta_x, dx):
    """(bins, 2) table psi sqrt(dx) e^{+-i theta_x} / sqrt(2), by two complex exps.

    The package takes one exp and its conjugate, written in place; this is
    the formula it used before, one exp per sign.
    """
    scale = np.asarray(envelope) * math.sqrt(dx) / math.sqrt(2.0)
    theta_x = np.asarray(theta_x)
    table = np.empty((scale.size, 2), dtype=np.complex128)
    table[:, 0] = scale * np.exp(1j * theta_x)
    table[:, 1] = scale * np.exp(-1j * theta_x)
    return table


def chi_square_pass(probabilities, observed_counts, quantile=0.999, pool_below=5.0):
    """Goodness-of-fit accept/reject with small-expectation cells pooled.

    Cells with expectation below `pool_below` are merged into one pooled
    cell (Cochran's rule) before computing the statistic against the
    chi-square quantile at `quantile` with (cells - 1) degrees of freedom.
    """
    observed = np.asarray(observed_counts, dtype=float)
    expected = np.asarray(probabilities, dtype=float) * observed.sum()
    big = expected >= pool_below
    obs = list(observed[big])
    exp = list(expected[big])
    small = ~big & (expected > 0)
    if expected[small].sum() > 0:
        obs.append(observed[small].sum())
        exp.append(expected[small].sum())
    obs, exp = np.asarray(obs), np.asarray(exp)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    return statistic < float(chi2.ppf(quantile, len(exp) - 1))


def event_log(table, count, seed, scenario_id, order):
    """Event log text: the header, then one f-string per draw of sample_outcomes.

    Draw i is cell (row, marker) = divmod(cell, columns) of the table, logged
    under the row's label.
    """
    lines = ["scenario_id,event_index,system_outcome,marker_outcome,order,seed"]
    for index, cell in enumerate(sample_outcomes(table, count, seed).tolist()):
        row, marker = divmod(cell, len(table.col_labels))
        lines.append(f"{scenario_id},{index},{table.row_labels[row]},{marker},{order},{seed}")
    return "\n".join(lines) + "\n"


def csv_row(record):
    """One event-log line of an EventRecord, by one f-string."""
    return (
        f"{record.scenario_id},{record.event_index},{record.system_outcome},"
        f"{record.marker_outcome},{record.order},{record.seed}"
    )


def pattern_csv(payload, echo):
    """Pattern CSV text, one str.format call per row."""
    xs, probs = np.asarray(payload["x"]), np.asarray(payload["p"], dtype=np.float64)
    condition = payload["condition"]
    header = "index_or_x,probability"
    row = ("{}," if xs.dtype.kind in "iu" else "{:.17g},") + "{:.17g}"
    if condition != "none":
        header += ",condition"
        row += "," + condition.replace("{", "{{").replace("}", "}}")
    lines = [f"# config: {echo}", header]
    lines.extend(map(row.format, xs.tolist(), probs.tolist()))
    return "\n".join(lines) + "\n"


def pattern_json(payload, echo):
    """Pattern JSON text, by the standard library's encoder."""
    document = {
        "config": json.loads(echo),
        "index_or_x": np.asarray(payload["x"]).tolist(),
        "probability": np.asarray(payload["p"], dtype=np.float64).tolist(),
        "condition": payload["condition"],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def line_chart_points(xs, ys):
    """SVG polyline points, each point scaled and formatted on its own.

    Only the layout constants are the package's; a constant coordinate maps
    to the low edge of its axis.
    """
    xs, ys = np.asarray(xs).tolist(), np.asarray(ys).tolist()
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(max(ys), 1e-300)
    y0 = _svg.MARGIN_TOP + _svg.PLOT_H
    points = []
    for x, y in zip(xs, ys):
        px = _svg.MARGIN_LEFT + (0.0 if x_hi == x_lo else (x - x_lo) / (x_hi - x_lo) * _svg.PLOT_W)
        py = y0 - (y - 0.0) / (y_hi - 0.0) * _svg.PLOT_H
        points.append(f"{px:.6g},{py:.6g}")
    return " ".join(points)


def bar_chart_marks(labels, values):
    """SVG bar chart marks, one `<rect>` and one `<text>` f-string per detector.

    Each height is scaled on its own; only the layout constants are the
    package's.
    """
    labels, values = np.asarray(labels).tolist(), np.asarray(values).tolist()
    y_hi = max(max(values), 1e-300)
    y0 = _svg.MARGIN_TOP + _svg.PLOT_H
    slot = _svg.PLOT_W / len(values)
    width = slot * 0.7
    marks = []
    for i, (label, value) in enumerate(zip(labels, values)):
        height = (value - 0.0) / (y_hi - 0.0) * _svg.PLOT_H
        x = _svg.MARGIN_LEFT + i * slot + (slot - width) / 2
        marks.append(
            f'<rect x="{x:.6g}" y="{y0 - height:.6g}" width="{width:.6g}" '
            f'height="{height:.6g}" fill="#1f6fb2"/>\n'
            f'<text x="{x + width / 2:.6g}" y="{y0 + 34}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{escape(str(label))}</text>\n'
        )
    return "".join(marks)
