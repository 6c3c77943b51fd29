"""Host-speed calibration: a fixed reference job timed between the commands.

The shared host this benchmark runs on changes speed by up to 2x, in phases
of seconds to minutes, as other tenants load the cores beside ours. The
benchmark therefore times a reference job before the first command and
after every command, on the same CPU, and divides each command's times by
the host's slowness around it: the mean time of the jobs on either side,
over :data:`REF_JOB_S`. The result is in reference seconds: seconds on a
host where the reference job takes ``REF_JOB_S``.

The job is a fresh interpreter importing SciPy, which every ``repro``
command does first; it runs no code of the program, so no change to the
program can move it. It was chosen over a fixed NumPy/heap loop in the
driver by alternating both with the commands on a 2-vCPU KVM guest (Xeon):
dividing each command's wall time by the job's cut its spread
(IQR/median over 23 commands) from 39% to 13% on ``chaos`` and from 36% to
17% on ``static``; the loop's cut it to 22% and 16%. The medians of ten
40 s runs, at ten seeds, then spread 7% on ``chaos`` and 4% on ``static``
(IQR/median), where their raw wall times spread 22% and 17%.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

#: ``python3`` arguments of the reference job; ``-I`` keeps the checkout
#: and the environment out of its import path.
REFERENCE_JOB = ("-I", "-c", "import scipy.stats, scipy.optimize")
#: Seconds the reference job takes on the reference host.
REF_JOB_S = 1.0


def job_s() -> float:
    """Wall time of one run of the reference job."""
    t0 = perf_counter()
    subprocess.run([sys.executable, *REFERENCE_JOB], check=True, timeout=60)
    return perf_counter() - t0


class HostSpeed:
    """The reference jobs timed so far: one at the start, one after each
    command."""

    def __init__(self) -> None:
        job_s()  # warm-up: loads SciPy's files into the page cache
        self.jobs = [job_s()]

    def after_command(self) -> float:
        """Time the job after a command; return the command's slowness."""
        self.jobs.append(job_s())
        return (self.jobs[-2] + self.jobs[-1]) / 2 / REF_JOB_S
