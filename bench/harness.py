"""Jobs, the timed loop, and the statistics the benchmark reports.

A job asks for one verdict.  Its inputs are generated and labelled by the
oracle before it runs; only `call`, the calls into mublines, is timed;
`judge` then compares the program's output with the oracle, untimed.  A run
asks each job several times (passes) and judges every answer.

Times are given at the reference host speed.  A shared 2-vCPU VM was seen to
change speed by up to half over minutes, as other tenants came and went, and
that drift would swamp any change to mublines.  So each timed call is
paired with `host_scale()`, taken just before and just after it: a fixed
piece of pure-Python work that touches nothing of mublines, timed and
compared with its time on the reference machine.  A call's time at
reference speed is its measured time times that factor.  Calls that start
processes are paired with `spawn_scale()` instead, the start of a bare
interpreter: process starts and pure-Python work do not slow together.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: no round starts after this many seconds, so that even a much slower
#: program ends its run well inside the 180 s limit
HARD_STOP_S = 120.0

#: the fastest time of host_probe() on the reference machine (2 cores,
#: Python 3.11); only the ratio to it matters
PROBE_REF_S = 0.00025
#: host probes per scale factor; their fastest one counts
PROBES = 3


def host_probe() -> float:
    """Seconds taken by a fixed piece of work like the package's own:
    integer, complex, dict and sort operations on Python objects.  Builtins
    only, so that it can run before numpy or mublines is imported."""
    t0 = time.perf_counter()
    acc, z, table = 0, 1 + 0j, {}
    for k in range(1, 400):
        acc += math.gcd(k * 7919, 104729 * k + 1) + (k * k) // 3
        z = z * complex(0.6, 0.8) + 0.001
        table[k, k % 7] = z
    sorted(table, key=lambda key: -key[0])
    return time.perf_counter() - t0


def host_scale(probes: int = PROBES) -> float:
    """The factor that takes a time measured now to the reference host
    speed: PROBE_REF_S over the fastest of `probes` host probes."""
    return PROBE_REF_S / min(host_probe() for _ in range(probes))


#: the fastest spawn_probe() on the reference machine
SPAWN_REF_S = 0.010


def spawn_probe() -> float:
    """Seconds to start and end a bare interpreter (`python -I -S -c pass`):
    the work of a process start, without numpy or mublines."""
    import subprocess  # here, so that importing this module stays cheap
    import sys

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


def spawn_scale(probes: int = 2) -> float:
    """host_scale() for a call that starts a process: SPAWN_REF_S over the
    fastest of `probes` spawn probes (two, as each costs ~15 ms)."""
    return SPAWN_REF_S / min(spawn_probe() for _ in range(probes))


@dataclass(frozen=True)
class Outcome:
    """agrees: the program's verdict and every output detail match the
    oracle.  false_yes: the program said "yes" where the oracle says "no"."""

    agrees: bool
    false_yes: bool = False


def verdict(said_yes: bool, truth: bool, details_ok: bool = True) -> Outcome:
    return Outcome(said_yes == truth and details_ok, said_yes and not truth)


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    judge: Callable[[Any], Outcome]
    #: the oracle's label, fixed before the job runs
    expect_yes: bool
    #: the defect class of a known-bad adversarial input, or None
    adversarial: str | None = None


@dataclass
class Tally:
    #: one latency per job, at reference host speed: the fastest of its passes
    latencies: list = field(default_factory=list)
    #: the host scale factor of every timed call
    scales: list = field(default_factory=list)
    #: index into `latencies` where each round starts
    round_starts: list = field(default_factory=list)
    #: verdicts given, every pass of every job
    attempted: int = 0
    failed: int = 0
    false_yes: int = 0
    #: failures outside the adversarial share, or adversarial jobs that
    #: failed other than by a wrong "yes" (raised, wrong details)
    unexpected: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)

    def add(self, job: Job, outcome: Outcome | None,
            error: BaseException | None = None) -> None:
        """Count one verdict."""
        self.attempted += 1
        row = self.by_kind.setdefault(job.kind, [0, 0, 0])
        row[0] += 1
        if outcome is not None and outcome.agrees:
            return
        self.failed += 1
        row[1] += 1
        if outcome is not None and outcome.false_yes:
            self.false_yes += 1
            row[2] += 1
        if job.adversarial is None or outcome is None or not outcome.false_yes:
            self.unexpected.append(f"{job.kind}: {error!r}" if error else job.kind)

    @property
    def correct(self) -> bool:
        """No verdict went wrong other than the documented wrong "yes" on
        the adversarial share."""
        return not self.unexpected


def run_job(job: Job, recorder=None, scale=None):
    """Time one call of the job, then judge its output, untimed.

    Returns (seconds at reference host speed, scale factor, outcome, error).
    The garbage of earlier calls is collected first, so that no call pays
    for another's.  The host is probed with `scale` (host_scale by default)
    just before and just after the call, and the faster of the two readings
    counts: a call is never made to look faster than the host's best speed
    around it."""
    output, error, outcome = None, None, None
    scale = scale or host_scale
    gc.collect()
    before = scale()
    if recorder is not None:
        recorder.active = True
    t0 = time.perf_counter()
    try:
        output = job.call()
    except ValueError as exc:  # mublines rejects bad input: a "no"
        error, outcome = exc, Outcome(not job.expect_yes)
    except Exception as exc:  # anything else is a failed verdict
        error = exc
    latency = time.perf_counter() - t0
    if recorder is not None:
        recorder.active = False
    factor = max(before, scale())
    if error is None:
        try:
            outcome = job.judge(output)
        except Exception as exc:  # output the oracle cannot read
            error = exc
    return latency * factor, factor, outcome, error


def run_rounds(make_round, rounds: int, passes: int = 1, recorder=None,
               scale=None) -> Tally:
    """Make `rounds` whole rounds of jobs, then run all of them `passes`
    times over (fewer only past HARD_STOP_S).

    `make_round()` returns an iterable of Jobs.  Every pass runs every job
    once, and every pass's verdict is judged and counted; a job's latency is
    its fastest pass, at reference host speed.  Other tenants only ever add
    time to a call, so the fastest of a few passes spread over the whole run
    is the program's own cost.  A fixed number of whole rounds keeps the job
    mix and the sample count, and so the rank of the tail sample, the same
    from run to run and from one version of mublines to the next.
    """
    tally = Tally()
    jobs = []
    for _ in range(rounds):
        tally.round_starts.append(len(jobs))
        jobs.extend(make_round())
    gc.freeze()  # the inputs live all run: keep them out of every collection
    best = [math.inf] * len(jobs)
    start = time.perf_counter()
    for _ in range(passes):
        for i, job in enumerate(jobs):
            if i in tally.round_starts and time.perf_counter() - start > HARD_STOP_S:
                break
            if recorder is not None:
                recorder.job = i
            latency, factor, outcome, error = run_job(job, recorder, scale)
            tally.scales.append(factor)
            best[i] = min(best[i], latency)
            tally.add(job, outcome, error)
    gc.unfreeze()
    tally.latencies = [t for t in best if t < math.inf]
    return tally


def round_throughputs(tally: Tally) -> list[float]:
    """Verdicts per second of job time, one figure per round."""
    n = len(tally.latencies)
    bounds = [min(b, n) for b in tally.round_starts] + [n]
    return [(hi - lo) / sum(tally.latencies[lo:hi])
            for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it: the 11th-largest sample.  With ten or fewer samples
    the maximum is returned at percentile 100."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n
