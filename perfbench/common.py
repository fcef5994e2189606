"""Helpers shared by the benchmark process and its child processes.

Every path is relative to the checkout root, which is the working
directory the benchmark is started from; nothing is read or written
outside it except the shared-memory segments the program itself uses.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for stores, span files and captured stderr (gitignored).
WORK = ROOT / ".perfbench"

TRACEBACK_MARK = "Traceback (most recent call last)"


def program_present() -> bool:
    """Whether the checkout holds the program this benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's own sources."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: always a value that was measured."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: What one :func:`calibrate` measurement takes at the reference host
#: speed (a quiet 2-core x86-64 host).  Only a scale: a reference-speed
#: time is a measured time times REFERENCE_UNIT_S / measured unit.
REFERENCE_UNIT_S = 0.004
#: Seconds of work between two calibrations.
CALIBRATE_EVERY_S = 0.5


def _calibration_unit() -> int:
    """Fixed interpreter work, a few milliseconds of it."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


def calibrate(repeats: int = 5) -> float:
    """Seconds one calibration unit takes now: the host's current speed."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - started)
    return median(times)


class Stopwatch:
    """Times operations at measured and at reference host speed.

    The host's speed drifts: other tenants on the same cores can slow
    every instruction by a third or more, for seconds at a time.  So a
    fixed calibration loop is timed in this process, between operations
    while the program is idle, at least every ``CALIBRATE_EVERY_S`` of
    work.  An operation's reference time is its measured time scaled by
    ``REFERENCE_UNIT_S`` over the mean of the calibrations on either
    side of it.  A slower host stretches operations and calibrations
    alike, so reference times stay put; a slower program does not slow
    the calibration, so its reference times grow.  Calibration time is
    excluded from every operation.
    """

    def __init__(self) -> None:
        self.calibration = calibrate()
        self.ms: List[float] = []
        self.ref_ms: List[float] = []
        self._pending: List[float] = []
        self._mark = self._since = time.perf_counter()

    def start(self) -> None:
        """The next operation starts now (time before it is not counted)."""
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """One operation ended now."""
        now = time.perf_counter()
        self._pending.append(now - self._mark)
        self._mark = now
        if now - self._since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Calibrate and settle the operations since the last calibration."""
        calibration = calibrate()
        factor = REFERENCE_UNIT_S / ((self.calibration + calibration) / 2.0)
        self.calibration = calibration
        self.ms += [1000.0 * s for s in self._pending]
        self.ref_ms += [1000.0 * s * factor for s in self._pending]
        self._pending = []
        self._mark = self._since = time.perf_counter()


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (or of its largest child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set of another live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def run_child(
    script: str, args: List[str], timeout: float
) -> Tuple[Optional[dict], str]:
    """Run ``perfbench/<script>`` in a fresh interpreter.

    Returns ``(last stdout line as JSON or None, stderr)``.  The child
    is killed and reaped if it outlives ``timeout``.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nchild {script} killed after {timeout:.0f}s\n"
    result = None
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return result, err


def count_tracebacks(text: str) -> int:
    return text.count(TRACEBACK_MARK)


def log(line: str) -> None:
    """Human-readable progress and results (stdout, before the JSON line)."""
    print(line, flush=True)
