"""Host fingerprint, thread pinning, and the host-speed reference.

Timings are comparable only between results with equal fingerprints;
checksums and counts are comparable everywhere.

The shared host this benchmark was built on runs the same code at
speeds that wander by up to 1.7x over tens of seconds to minutes (CPU
time tracks wall time, so the processor itself runs slower).  The
end-to-end times are therefore reported *at reference speed*: each wall
time is scaled by how long a fixed reference kernel, which uses nothing
from the program, took right before and right after it.  The raw wall
times stay in each run's record.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Environment variables that size BLAS / OpenMP thread pools.  The
#: benchmark pins each to 1 so that processes x threads stays within
#: the CPU count (the service workload runs two worker processes).
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before numpy loads."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


#: Seconds the reference kernel takes at reference speed: its median on
#: the 2-CPU host (Xeon, model 143, under KVM) the benchmark was tuned on.
REFERENCE_SECONDS = 0.030

_reference_inputs: Optional[Tuple[Any, Any, Any, Any]] = None


def _reference_kernel() -> None:
    """Interpreter loop, dense LU and sparse LU: the program's mix of work."""
    import numpy as np
    from scipy.sparse.linalg import splu

    a, b, matrix, rhs = _reference_inputs  # type: ignore[misc]
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(40):
        np.linalg.solve(a, b)
    splu(matrix).solve(rhs)


def reference_seconds() -> float:
    """Wall time of one call of the reference kernel."""
    global _reference_inputs
    if _reference_inputs is None:
        import numpy as np
        import scipy.sparse as sparse

        rng = np.random.default_rng(0)
        n = 20_000
        _reference_inputs = (
            rng.random((96, 96)) + 96.0 * np.eye(96),
            rng.random((96, 32)),
            sparse.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                         [-1, 0, 1], format="csc"),
            rng.random(n),
        )
        _reference_kernel()
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, scaled by the reference kernel's times
    measured right before and right after it."""
    return seconds * REFERENCE_SECONDS / ((before + after) / 2.0)


def _blas() -> Dict[str, str]:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": str(blas.get("name", "unknown")),
            "version": str(blas.get("version", "unknown"))}


def _git_revision(root: Path) -> str:
    """The checkout's git revision, or ``"unknown"`` outside a repository.

    Reads ``.git`` directly (no ``git`` process, nothing outside the
    checkout).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> Dict[str, Any]:
    import numpy as np
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_revision": _git_revision(root),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def timing_key(stamp: Dict[str, Any]) -> Dict[str, Any]:
    """The fingerprint fields that must match for timings to compare.

    The git revision is left out: comparing two revisions on one host
    is the point of a timing comparison.
    """
    return {key: value for key, value in stamp.items()
            if key != "git_revision"}
