"""Output checks applied to every op of a benchmark run.

An op passes when it exits 0, its artifact bytes equal those of the first
op in the run with the same argv and seed, and its parsed content holds:
event logs have `count` rows, pattern and joint-table probabilities sum
to 1 within 1e-10, SVGs parse, `qeraser check` reports every check
passed, and the library results of `verify_wide` meet their 1e-12
identities. Content is parsed the first time an argv is seen; repeats are
held to the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

SUM_ATOL = 1e-10
IDENTITY_ATOL = 1e-12


class OutputMismatch(Exception):
    """An op's output broke one of the benchmark's checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def _data_rows(text: str) -> list[str]:
    lines = text.splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# config: "), "missing config echo")
    return lines[2:]


def _probability_sum(values) -> None:
    total = math.fsum(values)
    _require(abs(total - 1.0) <= SUM_ATOL, f"probabilities sum to {total!r}")


def _event_log(text: str, op) -> None:
    rows = _data_rows(text)
    _require(len(rows) == op.count, f"{len(rows)} event rows, expected {op.count}")
    fields = rows[0].split(",")
    argv = list(op.argv)
    _require(len(fields) == 6, "event row does not have 6 fields")
    _require(fields[4] == argv[argv.index("--order") + 1], "event order tag differs from argv")
    _require(fields[5] == argv[argv.index("--seed") + 1], "event seed differs from argv")


def _pattern_csv(text: str, op) -> None:
    _probability_sum(float(row.split(",", 2)[1]) for row in _data_rows(text))


def _pattern_json(text: str, op) -> None:
    _probability_sum(json.loads(text)["probability"])


def _joint_csv(text: str, op) -> None:
    _probability_sum(float(row.rsplit(",", 1)[1]) for row in _data_rows(text))


def _joint_json(text: str, op) -> None:
    _probability_sum(p for row in json.loads(text)["probabilities"] for p in row)


def _svg(text: str, op) -> None:
    _require("<!-- config: " in text, "SVG lacks the config comment")
    ET.fromstring(text.encode("utf-8"))


def _check_report(text: str, op) -> None:
    last = text.strip().splitlines()[-1] if text.strip() else ""
    passed, _, rest = last.partition("/")
    total = rest.split(" ", 1)[0]
    _require(last.endswith("checks passed") and passed == total, f"check report: {last!r}")


_CONTENT_CHECKS = {
    "event_log": _event_log,
    "pattern_csv": _pattern_csv,
    "pattern_json": _pattern_json,
    "joint_csv": _joint_csv,
    "joint_json": _joint_json,
    "svg": _svg,
    "check": _check_report,
}


def verify_results(result: dict) -> None:
    """The 1e-12 identities of one verify_wide op."""
    for residual in result["residuals"]:
        _require(residual <= IDENTITY_ATOL, f"ordering residual {residual!r}")
    for table in result["tables"]:
        _probability_sum(table.probabilities.reshape(-1))
    for info in result["mutual_information"]:
        _require(math.isfinite(info) and info >= -IDENTITY_ATOL, f"mutual information {info!r}")
    for marker in result["screen_delayed"]:
        error = abs(marker.fidelity_dplus_thetax - 1.0)
        _require(error <= IDENTITY_ATOL, f"screen delayed fidelity off by {error!r}")
    config = result["config"]
    expected = np.stack([np.exp(1j * config.thetas), np.exp(1j * config.phis)], axis=1)
    expected /= math.sqrt(2.0)
    for j, delayed in enumerate(result["channel_delayed"]):
        fidelity = abs(complex(np.vdot(expected[j], delayed.marker_state.vector))) ** 2
        _require(abs(delayed.purity - 1.0) <= IDENTITY_ATOL, f"detector {j + 1} purity")
        _require(abs(fidelity - 1.0) <= IDENTITY_ATOL, f"detector {j + 1} delayed fidelity")
    washed = result["washed"].probabilities
    for (plus, p_plus), (minus, p_minus) in result["complementarity"]:
        mixed = p_plus * plus.probabilities + p_minus * minus.probabilities
        gap = float(np.max(np.abs(mixed - washed)))
        _require(gap <= IDENTITY_ATOL, f"complementary patterns miss the envelope by {gap!r}")


def results_digest(result: dict) -> str:
    """sha256 over every number a verify_wide op produced."""
    digest = hashlib.sha256()
    for table in result["tables"]:
        digest.update(table.probabilities.tobytes())
    scalars = list(result["residuals"]) + list(result["mutual_information"])
    scalars += [m.fidelity_dplus_thetax for m in result["screen_delayed"]]
    for delayed in result["channel_delayed"]:
        scalars += [delayed.purity, delayed.fidelity_dplus, delayed.fidelity_dminus]
        digest.update(delayed.marker_state.vector.tobytes())
    for (plus, p_plus), (minus, p_minus) in result["complementarity"]:
        digest.update(plus.probabilities.tobytes())
        digest.update(minus.probabilities.tobytes())
        scalars += [p_plus, p_minus]
    digest.update(np.asarray(scalars, dtype=np.float64).tobytes())
    return digest.hexdigest()


class OutputChecker:
    """Holds the first digest of each pool slot and checks every op against it."""

    def __init__(self):
        self._first: dict[int, str] = {}

    def check(self, slot: int, op, exit_code, payload) -> None:
        """Raise OutputMismatch unless the op's output is correct.

        `payload` is the artifact bytes, the captured stdout of a `check`
        op, or the result dict of a `verify` op.
        """
        if op.check == "verify":
            digest = results_digest(payload)
        else:
            _require(exit_code == 0, f"exit code {exit_code}")
            digest = hashlib.sha256(payload).hexdigest()
        if slot not in self._first:
            if op.check == "verify":
                verify_results(payload)
            else:
                _CONTENT_CHECKS[op.check](payload.decode("utf-8"), op)
            self._first[slot] = digest
        _require(digest == self._first[slot], "output differs from the first op with this argv")
