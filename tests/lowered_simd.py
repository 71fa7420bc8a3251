"""Re-running tests with numpy's SIMD dispatch lowered.

numpy picks its loops by CPU (AVX-512, AVX2, ...); NPY_DISABLE_CPU_FEATURES
lowers the dispatch of one process, down to X86_V3 and to the X86_V2
baseline where the host has more. A test that calls
`run_with_simd_lowered` should skip where `lowered_targets()` is empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import qeraser

ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra) -> dict:
    """The environment for a subprocess that imports this qeraser."""
    src = str(Path(qeraser.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def lowered_targets() -> dict:
    """Each dispatch level below the host's -> the host's numpy SIMD targets above it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x, which has no numpy._core: skip
        return {}
    dispatch = list(__cpu_dispatch__)  # lowest first
    if "X86_V3" not in dispatch:  # not an x86-64 build
        return {}
    levels = {"X86_V3": dispatch[dispatch.index("X86_V3") + 1 :], "X86_V2": dispatch}
    lowered = {}
    for level, above in levels.items():
        targets = [target for target in above if __cpu_features__.get(target)]
        if targets:
            lowered[level] = targets
    return lowered


def run_with_simd_lowered(test_file: str, keyword: str) -> None:
    """Run the tests of test_file that match `-k keyword` in a subprocess
    at each lowered dispatch level, and assert that they pass there."""
    for level, targets in lowered_targets().items():
        env = src_env(NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        check = (
            "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            f"assert not any(f.get(t) for t in {targets!r}), f\n"
        )
        proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (level, proc.stderr)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test_file, "-k", keyword],
            env=env, capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        assert proc.returncode == 0, (level, proc.stdout[-3000:], proc.stderr[-3000:])
