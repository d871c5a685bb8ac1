"""Print the machine note that goes with a baseline, as JSON.

    python3 perfbench/machine.py

Linux only: the CPU model comes from /proc/cpuinfo and cache sizes from
sysfs.  The BLAS thread count is asked of the OpenBLAS that numpy bundles.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str | None:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            out[f"L{level}"] = (index / "size").read_text().strip()
    return out


def _blas_threads() -> int | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_note() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_per_instance": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    print(json.dumps(machine_note(), indent=2))
