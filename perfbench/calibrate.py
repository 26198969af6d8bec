"""Calibrated timing: seconds rescaled to a fixed core speed.

On a shared host the speed of a core drifts by up to 1.7x, in spells of a
few seconds to minutes that can outlast a whole benchmark run, so raw
seconds measure the neighbours as much as the program. While a timed call
runs, a timer signal interrupts it every SAMPLE_PERIOD_S and times
`calibration_sample`: a fixed mix of work like the program's own (small
numpy matrix products and softmaxes driven from Python, a json dump, a
regex match) that does not touch lccn_lab. The call's seconds, less the
time spent in those samples, are rescaled to a core on which one sample
takes REFERENCE_SAMPLE_S:

    calibrated seconds = seconds * mean(REFERENCE_SAMPLE_S / sample seconds)

The samples are evenly spaced in time, so the mean weighs each stretch of
the call by its length. On the 2-vCPU VM the benchmark was tuned on, this
cut the spread of single training runs from about 18% to about 6% (standard
deviation of the log), where sampling only before and after each run cut it
to about 10%.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import time

import numpy as np

# Seconds of one `calibration_sample` on an uncontended core of the tuning VM.
REFERENCE_SAMPLE_S = 0.0007
SAMPLE_PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.random((32, 4))
_W1 = _rng.random((4, 64))
_W2 = _rng.random((64, 4))
_PATTERN = re.compile(r"(\d+),(\w+)")


def calibration_sample() -> float:
    """Seconds of a fixed mix of small work: how fast the core runs right now."""
    start = time.perf_counter()
    for step in range(24):
        logits = np.tanh(_X @ _W1) @ _W2
        logits -= logits.max(axis=1, keepdims=True)
        proba = np.exp(logits)
        proba /= proba.sum(axis=1, keepdims=True)
        np.bincount(proba.argmax(axis=1), minlength=4)
        json.dumps({"step": step, "rows": [1, 2, 3]})
        _PATTERN.match(f"{step},x{step}")
    return time.perf_counter() - start


class Calibrated:
    """Raw and calibrated seconds of a series of timed calls, in call order."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.samples: list[float] = []

    def time_call(self, call, sample_during: bool = True):
        """Time call() and return what it returns.

        One sample is taken before the call; with `sample_during`, more are
        taken while it runs and their time is left out of the call's seconds.
        """
        samples = [calibration_sample()]
        ticks: list[tuple[float, float]] = []

        def on_alarm(signum, frame) -> None:
            begun = time.perf_counter()
            samples.append(calibration_sample())
            ticks.append((begun, time.perf_counter() - begun))

        if sample_during:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            # Restart interrupted system calls rather than fail them with EINTR.
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            start = time.perf_counter()
            result = call()
            end = time.perf_counter()
        finally:
            if sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        # The handler runs on this thread, so a sample begun before `end` also ended before it.
        spent = sum(seconds for begun, seconds in ticks if begun < end)
        self.record(end - start - spent, samples)
        return result

    def record(self, seconds: float, samples: list[float]) -> None:
        """Add raw seconds and the calibration samples taken while they ran."""
        self.raw.append(seconds)
        self.scaled.append(seconds * statistics.fmean(REFERENCE_SAMPLE_S / s for s in samples))
        self.samples += samples
