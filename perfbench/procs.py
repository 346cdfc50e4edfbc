"""Starting, measuring and stopping the program's processes."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import PINNED_ENV

clock = time.monotonic
HERE = Path(__file__).resolve().parent


def cpu_s(pid: int) -> float:
    """CPU time of one process, all its threads, to the nanosecond.

    Reads the process's CPU-time clock (the id ``clock_getcpuclockid``
    returns: ``~pid << 3 | CPUCLOCK_SCHED``), the utime + stime that
    ``/proc/<pid>/stat`` reports in 10 ms ticks.
    """
    return time.clock_gettime((~pid << 3) | 2)


def peak_rss_mb(pid: int) -> float:
    """VmHWM of one live process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Processes:
    """Every process the benchmark starts, so that all are stopped on exit."""

    def __init__(self, root: Path, logs: Path) -> None:
        self.root = root
        self.logs = logs
        self.env = dict(os.environ)
        self.env.update(PINNED_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.live: list[subprocess.Popen] = []

    def python(self, args: list[str], *, name: str, stdout: Any = subprocess.DEVNULL) -> subprocess.Popen:
        """Start ``python3 ARGS`` in the checkout; stderr goes to a log file."""
        with open(self.logs / f"{name}.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.root, env=self.env, stdout=stdout, stderr=log
            )
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float, poll: float = 0.002) -> tuple[int, float]:
        """Wait for ``proc``; returns its exit code and its own peak RSS in MB.

        ``wait4`` gives the rusage of that one child, not the aggregate of
        every child the benchmark has reaped.
        """
        deadline = clock() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.live.remove(proc)
                return proc.returncode, usage.ru_maxrss / 1024.0
            if clock() > deadline:
                proc.kill()
                proc.wait()
                self.live.remove(proc)
                raise TimeoutError(f"{proc.args} did not finish within {timeout}s")
            time.sleep(poll)

    def run(self, args: list[str], *, name: str, timeout: float) -> tuple[int, float]:
        """Start a process and wait for it (see :meth:`reap`)."""
        return self.reap(self.python(args, name=name), timeout)

    def stop(self, proc: subprocess.Popen, timeout: float = 30.0) -> int:
        """SIGTERM, then wait; SIGKILL if it does not end in time."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.live:
            self.live.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        """Stop every process still running."""
        for proc in list(self.live):
            self.stop(proc, timeout=10.0)


class Server:
    """One ``repro serve --async`` process and an HTTP connection to it."""

    def __init__(
        self, procs: Processes, artifact: Path, pipeline: Path | None, *, spans: Path | None,
        name: str,
    ) -> None:
        cli = ["serve", "--async", "--artifact", str(artifact), "--port", "0"]
        if pipeline is not None:
            cli += ["--pipeline", str(pipeline)]
        args = [str(HERE / "launch.py"), str(spans), *cli] if spans else ["-m", "repro", *cli]
        self.procs = procs
        self.proc = procs.python(args, name=name, stdout=subprocess.PIPE)
        self.pid = self.proc.pid
        match = None
        while match is None:
            line = self.proc.stdout.readline().decode()
            if not line:
                raise RuntimeError(f"server exited before listening; see {name}.log")
            match = re.search(r"http://([\d.]+):(\d+)", line)
        self.address = (match.group(1), int(match.group(2)))
        self._conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on the benchmark's own keep-alive connection."""
        for attempt in range(2):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(*self.address, timeout=60)
            try:
                self._conn.request("GET", path)
                response = self._conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException):
                self._conn.close()
                self._conn = None
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def healthz(self) -> dict[str, Any]:
        """The parsed ``/healthz`` payload."""
        status, body = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return json.loads(body)

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Poll ``/healthz`` until it answers; returns when it first did."""
        deadline = clock() + timeout
        while True:
            try:
                self.healthz()
                return clock()
            except (OSError, http.client.HTTPException, RuntimeError):
                if clock() > deadline or self.proc.poll() is not None:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        """Close the connection and stop the process."""
        if self._conn is not None:
            self._conn.close()
        self.procs.stop(self.proc)
