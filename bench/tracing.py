"""Spans, counts and readings recorded around calls into vactrap's layers.

The benchmark wraps each call it makes into a layer's public function in
``tracer(name)``, where ``name`` is ``<layer>.<operation>``.  With tracing
off that is a shared no-op context, so the untraced passes that give the
end-to-end metrics pay almost nothing for it.  With tracing on, each span
records its name, start, end, parent span and run (pass) id in memory; the
list is written out once, when the run ends.

Counts (sizes, bytes computed from array shapes) and accuracy readings are
taken only when tracing is on, so their own cost never enters ``wall_s``.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.run_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        if exc_type is not None and tr.failed_in is None:
            tr.failed_in = self.name
        return False


class Tracer:
    """In-memory span recorder; ``enabled`` is switched per pass."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.run_id = 0
        self.failed_in: str | None = None
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self.readings: dict[str, float] = {}

    def __call__(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a per-pass count (only call when enabled)."""
        per_pass = self.counts[self.run_id]
        per_pass[name] = per_pass.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value of a per-pass size (only call when enabled)."""
        per_pass = self.counts[self.run_id]
        per_pass[name] = max(per_pass.get(name, value), value)

    def reading(self, name: str, value: float, worst=max) -> None:
        """Keep the worst accuracy reading over the run (tracing on only)."""
        if self.enabled:
            value = float(value)
            old = self.readings.get(name)
            self.readings[name] = value if old is None else worst(old, value)

    def self_times(self, run_id: int) -> dict[str, float]:
        """Per span name, summed self time (duration minus child spans)."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in mine:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in mine:
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self, path: Path, header: dict) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": rows}) + "\n")


# ------------------------------------------------------------ machine record


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level").strip()
        kind = _read(f"{index}/type").strip()
        size = _read(f"{index}/size").strip()
        if level in ("2", "3") and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded (no threadpoolctl)."""
    libs = {
        line.split()[-1]
        for line in _read("/proc/self/maps").splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"commit": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"commit": commit, "dirty": bool(status.strip())}


def machine_record(root: Path) -> dict:
    """Where the numbers came from; compare numbers only within one machine."""
    import numpy
    import scipy

    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    mem = re.search(r"^MemTotal:\s*(\d+) kB", _read("/proc/meminfo"), re.M)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor(),
        "caches": _caches(),
        "ram_mb": round(int(mem.group(1)) / 1024) if mem else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "git": _git(root),
    }
