"""Operation counting and the timed round loop shared by every workload."""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Tally:
    """Operations attempted and failed, and every unexpected check failure.

    An operation fails when a check named in its ``known_faults`` fails: that
    is a fault of the program the benchmark documents, and it is counted, not
    raised.  Any other failing check makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, checks: dict[str, bool], known_faults=frozenset()) -> None:
        self.attempted += 1
        bad = {name for name, ok in checks.items() if not ok}
        if bad & set(known_faults):
            self.failed += 1
        self.problems.extend(f"{op}: {name}" for name in sorted(bad - set(known_faults)))

    @property
    def correct(self) -> bool:
        return not self.problems


class Reference:
    """A fixed computation that measures how fast the host runs right now.

    On a shared 2-core VM the host's speed changed by 20-30 % over tens of
    seconds, for every kind of work alike.  Dividing the program's time by
    the time of this computation, sampled next to every call into the
    program, cancels most of that drift.  Two mixes follow the two kinds of work the workloads do:
    ``grid`` gathers and reduces 64^2 arrays, sorts index rows and runs
    interpreter-bound Python; ``fft`` runs 3-d FFTs and batched 3x3
    eigenvalue problems on arrays too large for the caches.
    """

    def __init__(self, mix: str) -> None:
        rng = np.random.default_rng(20160727)
        self.mix = mix
        self.grid = rng.standard_normal((64, 64))
        self.rows = (np.arange(64)[:, None] - rng.integers(0, 3, 64)[None, :]) % 64
        self.weights = rng.uniform(0.0, 1.0, 64)
        self.keys = rng.integers(-8, 8, size=(4096, 3))
        self.cube = rng.standard_normal((48, 48, 48))
        mats = rng.standard_normal((8192, 3, 3))
        self.mats = mats + np.swapaxes(mats, -1, -2)

    def sample(self) -> float:
        start = time.perf_counter()
        if self.mix == "fft":
            for _ in range(2):
                np.fft.irfftn(np.fft.rfftn(self.cube) * 0.5, s=self.cube.shape, axes=(0, 1, 2))
            np.linalg.eigvalsh(self.mats)
        else:
            cols = np.arange(64)[None, :]
            f = self.grid
            for _ in range(80):
                g = (1.0 - self.weights) * f[self.rows, cols] + self.weights * f[self.rows - 1, cols]
                f = 0.5 * (f + g)
                float((f * f).sum()) + float(np.gradient(f, axis=1).max())
            np.unique(self.keys, axis=0, return_inverse=True)
        table: dict = {}
        for i in range(4000):
            table[(i % 97, i % 13)] = table.get((i % 97, i % 13), 0.0) + i * 0.5
        return time.perf_counter() - start


@dataclass
class Context:
    """What a round needs besides its inputs: the tally, the wall time spent
    in the program's calls, reference samples taken next to those calls and,
    when traced, the tracer for spans around the benchmark's own blocks."""

    tally: Tally
    reference: Reference
    tracer: object = None
    program_s: float = 0.0
    reference_s: list[float] = field(default_factory=list)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def timed(self, fn, *args, **kwargs):
        """Call into the program, adding its wall time to the round's; one
        reference sample is taken just before and one just after."""
        self.reference_s.append(self.reference.sample())
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.program_s += time.perf_counter() - start
        self.reference_s.append(self.reference.sample())
        return result


def run_rounds(round_fn, seconds: float, before_round=None, after_round=None) -> list[dict]:
    """Start whole rounds until ``seconds`` have passed; at least one runs."""
    start = time.perf_counter()
    results: list[dict] = []
    while not results or time.perf_counter() - start < seconds:
        if before_round is not None:
            before_round()
        results.append(round_fn())
        if after_round is not None:
            after_round(results[-1])
    return results
