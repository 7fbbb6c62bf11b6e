"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of pure-Python work drifts. On the 2-core host
the bounds were set on, a fixed piece of work ran either at about 3 ms or
at about 5.5 ms, switching between the two within a quarter of a second
and spending anywhere from none to all of a half second in the slow mode;
CPU time followed wall time, and the two cores drifted independently. A
median over many operations cannot remove a drift that outlasts the run,
so run-to-run spreads of 20-35 % remained.

So the benchmark samples the host's speed while it measures: a timer
signal interrupts the main thread every ``PERIOD_S`` and times a short
reference computation of the benchmark's own, which no change to
``catchrec`` can alter. The reference is the benchmark's Java tokenizer
and LCS over a fixed text: regular expressions, lists, dicts and short
loops, the kind of work ``catchrec`` does in user mode. While a directory
for it is set (during the set-up, whose kernel time is the creation of the
cache files), the signal also times the creation of one 4 KB file. A timed
step's calibrated time is its wall time with its user-mode share scaled to
the speed at which the reference takes ``REFERENCE_MS``, and its kernel
share to the speed at which a file is created in ``FILE_REFERENCE_MS``:

    calibrated = wall * (u * REFERENCE_MS / mean(reference samples)
                         + (1 - u) * FILE_REFERENCE_MS / mean(file samples))

where ``u`` is the step's user CPU time over its user plus kernel CPU time
and the means are over the samples taken during the step. Without file
samples the kernel share is left as measured. The samples come at a fixed
period, so their means are time-averages over the step.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import resource
import shutil
import signal
import statistics
import time
from pathlib import Path

from oracles import java_tokens, lcs

PERIOD_S = 0.02
# Mean reference times on the host the bounds were set on; they only fix
# the scale, so that calibrated figures read as wall times there.
REFERENCE_MS = 0.6
FILE_REFERENCE_MS = 0.4

_TEXT = """
public String fetch(int page) {
    StringBuilder body = new StringBuilder();
    try {
        URL url = new URL(String.format(ENDPOINT, page));
        BufferedReader reader = new BufferedReader(url.openStream());
        String line;
        while ((line = reader.readLine()) != null) {
            body.append(line).append('\\n');
        }
    } catch (IOException e) {
        log.warn("fetch of page " + page + " failed", e);
        return null;
    }
    return body.toString();
}
"""
_BLOCK = b"x" * 4096


def _reference() -> None:
    tokens = [text for _kind, text in java_tokens(_TEXT)]
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    lcs(tokens[:30], tokens[20:50])


def reference_ms() -> float:
    """Wall time of one run of the reference computation, after a first
    run that brings its code and data back into the processor's caches, so
    that what the interrupted program left there does not count."""
    _reference()
    start = time.perf_counter()
    _reference()
    return 1000.0 * (time.perf_counter() - start)


def file_reference_ms(path: Path) -> float:
    """Wall time of creating ``path`` and writing 4 KB to it."""
    start = time.perf_counter()
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_EXCL, 0o644)
    try:
        os.write(fd, _BLOCK)
    finally:
        os.close(fd)
    return 1000.0 * (time.perf_counter() - start)


class Clock:
    """Times steps in calibrated seconds; use as a context manager, which
    starts and stops the sampling timer."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.file_samples: list[float] = []
        self._file_dir: Path | None = None
        self._names = itertools.count()
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_ms())
        if self._file_dir is not None:
            self.file_samples.append(file_reference_ms(self._file_dir / str(next(self._names))))

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def sampling_files(self, directory: Path):
        """Also sample file creation, in ``directory``, which is made here
        and removed afterwards."""
        directory.mkdir()
        self._file_dir = directory
        try:
            yield
        finally:
            self._file_dir = None
            shutil.rmtree(directory, ignore_errors=True)

    def time(self, fn, *args):
        """(result, wall seconds, calibrated seconds) of ``fn(*args)``."""
        first, first_file = len(self.samples), len(self.file_samples)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        during = self.samples[first:] or [reference_ms()]
        files = self.file_samples[first_file:]
        user = after.ru_utime - before.ru_utime
        kernel = after.ru_stime - before.ru_stime
        user_share = user / (user + kernel) if user + kernel > 0 else 1.0
        kernel_factor = FILE_REFERENCE_MS / statistics.fmean(files) if files else 1.0
        factor = user_share * REFERENCE_MS / statistics.fmean(during) + (1.0 - user_share) * kernel_factor
        return result, wall, wall * factor
