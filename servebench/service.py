"""Launch, watch and stop the service under test, from outside it.

The service runs as its own OS process tree, exactly as a user starts
it (``python -m repro serve`` or ``python -m repro fleet``).  This
module only reads what any outside observer can: the parseable bind
lines the CLI prints, and ``/proc/<pid>/task/*/schedstat`` and ``status``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: How long a launched service may take to print its bind line(s).
START_TIMEOUT_S = 60.0

#: How long the service may take to exit after SIGINT.
STOP_TIMEOUT_S = 30.0

_LISTEN = re.compile(r"^(serve|fleet): listening on \S+ port (\d+)$", re.M)
_SHARD = re.compile(r"^fleet: shard (\S+) pid (\d+) port (\d+)$", re.M)


class ServiceError(RuntimeError):
    """The service did not start, answer, or stop as expected."""


@dataclass(frozen=True)
class ProcSample:
    """One reading of a process from /proc."""

    cpu_s: float
    #: CPU of the main thread alone (tid == pid): the one thread that runs
    #: the program's event loop, codec, sessions, scheduler and DSP calls.
    #: The other threads are BLAS helpers.
    main_cpu_s: float
    threads: int
    hwm_kb: int
    ctx_switches: int


def read_proc(pid: int) -> ProcSample:
    """CPU, main-thread CPU, threads, peak RSS and context switches of one process.

    CPU is the sum over the process's threads of the nanosecond run
    time in ``/proc/<pid>/task/<tid>/schedstat`` (user and system); the
    ``utime``/``stime`` of ``/proc/<pid>/stat`` count 10 ms ticks, too
    coarse for a one-second phase.
    """
    cpu_ns = main_ns = switches = threads = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            schedstat = Path(f"/proc/{pid}/task/{task}/schedstat").read_text()
            task_status = Path(f"/proc/{pid}/task/{task}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):  # the thread just exited
            continue
        threads += 1
        run_ns = int(schedstat.split()[0])
        cpu_ns += run_ns
        if int(task) == pid:
            main_ns = run_ns
        for line in task_status.splitlines():
            if line.startswith(("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")):
                switches += int(line.split()[1])
    values = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, rest = line.partition(":")
        values[key] = rest.split()
    return ProcSample(
        cpu_s=cpu_ns / 1e9,
        main_cpu_s=main_ns / 1e9,
        threads=threads,
        hwm_kb=int(values["VmHWM"][0]),
        ctx_switches=switches,
    )


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host since boot, from /proc/stat.

    Steal is time the hypervisor ran something else while this machine
    had work: a run with a large steal share measured a crowded host.
    """
    fields = [int(value) for value in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a process that has not exited (zombies are dead)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@dataclass
class Service:
    """One running service: its process tree and where it listens."""

    kind: str
    popen: subprocess.Popen
    port: int
    launched_at: float
    #: role -> pid; ``worker`` does the serving, ``frontend`` only relays.
    pids: dict[str, int] = field(default_factory=dict)

    def sample(self) -> dict[str, ProcSample]:
        return {role: read_proc(pid) for role, pid in self.pids.items()}

    def stop(self) -> None:
        """SIGINT the service and require every server pid to end.

        Raises:
            ServiceError: the service did not exit in time, or one of
                its processes outlived it (the stragglers are killed
                first, so the benchmark never leaves them behind).
        """
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
        try:
            self.popen.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServiceError(f"{self.kind} did not exit within {STOP_TIMEOUT_S:.0f}s of SIGINT")
        deadline = time.monotonic() + 5.0
        survivors = [pid for pid in self.pids.values() if pid_alive(pid)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors if pid_alive(pid)]
        if survivors:
            self.kill()
            raise ServiceError(f"{self.kind} server pid(s) {survivors} outlived SIGINT")

    def kill(self) -> None:
        """Last resort: SIGKILL every process of the service and reap it."""
        for pid in self.pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait()
        deadline = time.monotonic() + 5.0
        while any(pid_alive(pid) for pid in self.pids.values()):
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)


def launch(root: Path, argv: list[str], log_path: Path, env: dict[str, str]) -> Service:
    """Start ``python <argv>`` in ``root`` and wait for its bind line(s).

    ``argv`` is either ``-m repro serve|fleet ...`` or the traced
    launcher script followed by the same CLI arguments.
    """
    kind = "fleet" if "fleet" in argv else "serve"
    launched_at = time.monotonic()
    with open(log_path, "wb") as log:
        popen = subprocess.Popen(
            [sys.executable, *argv],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    service = Service(kind, popen, 0, launched_at)
    deadline = launched_at + START_TIMEOUT_S
    while True:
        text = log_path.read_text(errors="replace")
        listen = _LISTEN.search(text)
        shards = _SHARD.findall(text)
        if listen and (kind == "serve" or shards):
            break
        if popen.poll() is not None:
            raise ServiceError(f"{kind} exited with {popen.returncode} before binding:\n{text}")
        if time.monotonic() > deadline:
            service.kill()
            raise ServiceError(f"{kind} did not bind within {START_TIMEOUT_S:.0f}s")
        time.sleep(0.005)
    service.port = int(listen.group(2))
    if kind == "fleet":
        service.pids["frontend"] = popen.pid
        service.pids["worker"] = int(shards[0][1])
    else:
        service.pids["worker"] = popen.pid
    return service
