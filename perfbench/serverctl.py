"""Start, watch and stop an ``orm-validate serve`` subprocess.

The server runs in its own process group (the router, its worker
processes and any helper multiprocessing starts), so a ``kill -9`` of the
group is a whole-deployment crash and the group's summed RSS is the
deployment's memory.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.server.client import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
TRACED_LAUNCHER = Path(__file__).resolve().parent / "traced_serve.py"


class ServerError(RuntimeError):
    """The server did not start, or did not stop, as expected."""


class Server:
    """One running ``serve`` process group."""

    def __init__(self, flags: list[str], *, trace_dir: Path | None = None) -> None:
        self.flags = list(flags)
        self.trace_dir = trace_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.tool.cli", "serve", *flags]
        else:
            argv = [sys.executable, str(TRACED_LAUNCHER), str(trace_dir), "serve", *flags]
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
            text=True,
        )
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        marker = "listening on "
        if marker not in line:
            self.kill()
            raise ServerError(f"server did not start: {line.strip()!r}")
        self.url = line.split(marker, 1)[1].split()[0]
        self.pgid = self.proc.pid

    def client(self) -> ServiceClient:
        return ServiceClient(self.url, timeout=60.0)

    def healthz(self) -> dict:
        with self.client() as client:
            return client.healthz()

    def group_pids(self) -> list[int]:
        """Every live process of the server's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            # fields[0] is the state, fields[2] the process group id.
            if int(fields[2]) == self.pgid and fields[0] != "Z":
                pids.append(int(entry))
        return pids

    def rss_mb(self, pids: list[int] | None = None) -> float:
        """Resident set size summed over ``pids`` (default: the process
        group), in MiB."""
        total_kb = 0
        for pid in self.group_pids() if pids is None else pids:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmRSS:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def signal_pids(self, pids: list[int], signum: int) -> None:
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def stop(self, timeout: float = 20.0) -> None:
        """Graceful stop (SIGINT to the router), then kill what is left."""
        if self.proc.poll() is None:
            try:
                os.kill(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """``kill -9`` the whole process group and reap it."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while self.group_pids() and time.monotonic() < deadline:
            time.sleep(0.01)
        if self.group_pids():
            raise ServerError(f"process group {self.pgid} survived SIGKILL")
