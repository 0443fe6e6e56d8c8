"""Record of the machine and libraries a run measured on.

The BLAS thread variables are read when this module is imported, before
run.py may set them for a timed run, so the record holds both what the
environment had and what the run used.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# None means unset
FOUND = {k: os.environ.get(k) for k in BLAS_VARS}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict[str, dict]:
    """Data and unified caches of CPU 0: size in bytes and the CPUs sharing it."""
    out = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = {
                "bytes": _size_bytes((index / "size").read_text()),
                "shared_cpu_list": (index / "shared_cpu_list").read_text().strip(),
            }
        except (OSError, ValueError):
            continue
    return out


def blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def environment(workers: int | None = None) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        # None means unset
        "blas_threads_env_found": FOUND,
        "blas_threads_env_used": {k: os.environ.get(k) for k in BLAS_VARS},
        "workers": workers,
    }
