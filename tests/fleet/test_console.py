"""Console smoke: ``repro fleet`` and ``repro load --resilient``.

The fleet process must print its bound port and one line per shard in
the same parseable convention as ``repro serve`` — scripts and the CI
fleet smoke step rely on those lines when starting with ``--port 0``.
"""

import os
import re
import subprocess
import sys
import time

import pytest

PORT_LINE = re.compile(r"^fleet: listening on (\S+) port (\d+)$")
SHARD_LINE = re.compile(r"^fleet: shard (w\d+) pid (\d+) port (\d+)$")


def _start_fleet(log):
    """Launch ``repro fleet --port 0 --workers 2``; return (process, port, shards).

    ``shards`` maps each shard name to its ``(pid, port)``.
    """
    with log.open("w") as sink:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--port", "0",
             "--workers", "2", "--duration", "60"],
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
    port = None
    shards = {}
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        for line in log.read_text().splitlines():
            match = PORT_LINE.match(line)
            if match:
                port = int(match.group(2))
            match = SHARD_LINE.match(line)
            if match:
                shards[match.group(1)] = (int(match.group(2)), int(match.group(3)))
        if (port is not None and len(shards) == 2) or process.poll() is not None:
            break
        time.sleep(0.1)
    return process, port, shards


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def fleet_process(tmp_path):
    """A real ``repro fleet --port 0`` subprocess; yields (port, shards)."""
    log = tmp_path / "fleet.log"
    process, port, shards = _start_fleet(log)
    try:
        assert port is not None, f"no port line in: {log.read_text()!r}"
        assert sorted(shards) == ["w0", "w1"], log.read_text()
        yield port, {name: shard_port for name, (_, shard_port) in shards.items()}
    finally:
        process.terminate()
        process.wait(timeout=15)


class TestFleetConsole:
    def test_sigterm_drains_and_reaps_every_worker(self, tmp_path):
        log = tmp_path / "fleet.log"
        process, port, shards = _start_fleet(log)
        try:
            assert port is not None, f"no port line in: {log.read_text()!r}"
            assert sorted(shards) == ["w0", "w1"], log.read_text()
        finally:
            process.terminate()
            returncode = process.wait(timeout=15)
        assert returncode == 0, log.read_text()
        assert "fleet: interrupted, shut down" in log.read_text()
        # The frontend reaps its workers before it exits.
        assert [pid for pid, _ in shards.values() if _pid_alive(pid)] == []

    def test_resilient_load_verifies_through_the_fleet(self, fleet_process):
        port, _ = fleet_process
        result = subprocess.run(
            [sys.executable, "-m", "repro", "load", "--resilient",
             "--port", str(port), "--sessions", "4", "--pushes", "4",
             "--block-size", "200"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "zero divergence" in result.stdout
        assert "diverged_columns: 0" in result.stdout
