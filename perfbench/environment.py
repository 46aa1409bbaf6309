"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_BLAS_THREADS = "1"

# Why the thread count is pinned: on a 2-core machine with OpenBLAS, one
# wide-certify op (certify, n = 200, d = 2000) took 23-36 ms with one BLAS
# thread and 56-995 ms with the default two, so default-thread runs do not
# repeat within a tenth.
DEFAULT_THREAD_NOTE = (
    "wide-certify per-op time at the default BLAS thread count (2 cores): "
    "56-995 ms; with 1 thread: 23-36 ms. Runs pin 1 thread."
)


def pinned_environment(base: dict) -> dict:
    """A copy of ``base`` with every BLAS thread-count variable set to one."""
    env = dict(base)
    for var in BLAS_THREAD_VARS:
        env[var] = PINNED_BLAS_THREADS
    return env


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_block(root: Path) -> dict:
    """Versions, BLAS, thread pinning, CPU and commit of the running process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        runtime_threads = _openblas_threads()
    except OSError:
        runtime_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_runtime": runtime_threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "default_thread_spread": DEFAULT_THREAD_NOTE,
    }
