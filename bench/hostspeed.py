"""Host-speed probe: a fixed reference task timed after every measured pass.

The benchmark's host is a shared VM whose vCPUs change speed by 20 % and
more over minutes (a fixed pure-Python loop has ranged from 40 to 61 ms),
while CPU time keeps tracking wall time.  No statistic inside one run can
remove a slowdown that lasts the whole run.  So a fixed probe runs after
every pass, and ``wall_ref_s`` is the mean pass time times
``reference / mean probe time``: the pass time at the host speed at which
the probe takes its reference time.

The probe is made of parts, each a fixed piece of the kind of work a
workload spends its time in:

- ``python``: an interpreted integer loop.  It tracks the vCPU's speed for
  interpreted code and for compute-bound LAPACK calls (``eigh`` and the
  dense eigen-solve behind ``spectral_abscissa``).
- ``gemv``: complex matrix-vector products on a 400x400 matrix, the size of
  the dim-20 generator.  Split over two BLAS threads it sits in L2, which
  the host's other tenants share, so its speed moves apart from the
  ``python`` part.

The probe runs no vactrap code, so a change to vactrap cannot move it; a
change that speeds up or slows down vactrap moves ``wall_ref_s`` by the
same factor as the raw wall time.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe parts timed for each workload: the kinds of work its passes spend
#: most of their time in (see bench/README.md for the per-pass split).
PARTS = {
    "me-long": ("python", "gemv"),
    "me-wide": ("python",),
    "oracles": ("python",),
}
#: Time (s) of each part: its median over the proof runs in bench/README.md.
#: Their sum over a workload's parts sets the scale of its ``wall_ref_s``.
REFERENCE_S = {"python": 0.2, "gemv": 0.17}
PYTHON_LOOPS = 1_800_000
GEMV_REPEATS = 4_000


class HostSpeed:
    """Times a workload's probe parts; keeps every sample, split by part."""

    def __init__(self, workload: str):
        self.parts = PARTS[workload]
        self.reference_s = sum(REFERENCE_S[part] for part in self.parts)
        rng = np.random.default_rng(0x5EED)
        self._mat = rng.normal(size=(400, 400)) + 1j * rng.normal(size=(400, 400))
        self._vec = self._mat[:, 0].copy()
        self.samples: list[dict[str, float]] = []
        self.probe()  # the first call starts the BLAS threads; not kept
        self.samples.clear()

    def probe(self) -> None:
        """Run the probe once and keep the time of each part."""
        times = {}
        for part in self.parts:
            start = time.perf_counter()
            getattr(self, "_" + part)()
            times[part] = time.perf_counter() - start
        self.samples.append(times)

    def rescale(self, walls: list[float]) -> float:
        """Mean of ``walls`` at the reference host speed.

        Means, not medians: one probe is a short sample whose time varies
        by 10-15 % from the next, and the mean of all of a run's probes
        follows the host more closely than their median does.
        """
        probe = statistics.fmean(sum(s.values()) for s in self.samples)
        return statistics.fmean(walls) * self.reference_s / probe

    def _python(self) -> None:
        acc = 0
        for i in range(PYTHON_LOOPS):
            acc += i * i % 7

    def _gemv(self) -> None:
        mat, vec = self._mat, self._vec
        for _ in range(GEMV_REPEATS):
            mat @ vec
