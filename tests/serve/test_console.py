"""Console-script smoke paths: ``repro serve`` and ``repro load``.

The serve process must print its bound port on one parseable line —
that line is the contract scripts (and the CI smoke step) rely on when
starting with ``--port 0``.
"""

import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import main
from repro.serve import ResilientServeClient, ServeClient

PORT_LINE = re.compile(r"^serve: listening on (\S+) port (\d+)$")


@pytest.fixture
def serve_process(tmp_path):
    """A real ``repro serve --port 0`` subprocess; yields (port, pid)."""
    log = tmp_path / "serve.log"
    with log.open("w") as sink:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--duration", "30"],
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
    try:
        port = None
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            for line in log.read_text().splitlines():
                match = PORT_LINE.match(line)
                if match:
                    port = int(match.group(2))
                    break
            if port is not None or process.poll() is not None:
                break
            time.sleep(0.1)
        assert port is not None, f"no port line in: {log.read_text()!r}"
        yield port, process.pid
    finally:
        process.terminate()
        process.wait(timeout=10)


class TestConsoleScripts:
    def test_serve_prints_bound_port_and_answers(self, serve_process):
        port, _ = serve_process
        rng = np.random.default_rng(7)
        with ServeClient("127.0.0.1", port) as client:
            assert client.ping()["type"] == "pong"
            client.open_session(
                config={"window_size": 64, "hop": 16, "subarray_size": 24}
            )
            block = rng.standard_normal(96) + 1j * rng.standard_normal(96)
            reply = client.push(block)
            assert len(reply.columns) == 3
            closed = client.close_session()
            assert closed["columns_out"] == 3

    def test_load_command_exits_zero_against_live_server(self, serve_process):
        port, _ = serve_process
        result = subprocess.run(
            [sys.executable, "-m", "repro", "load",
             "--port", str(port), "--sessions", "3", "--seconds", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "zero divergence" in result.stdout
        assert "diverged_columns: 0" in result.stdout

    def test_serve_pins_every_blas_pool_to_one_thread(self, serve_process):
        port, pid = serve_process
        pools = set()
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6:
                    name = os.path.basename(fields[5].strip())
                    if "openblas" in name.lower():
                        pools.add(name)
        if not pools:
            pytest.skip("the server loaded no OpenBLAS pool")
        with ServeClient("127.0.0.1", port) as client:
            reported = client.server_stats()["scheduler"]["blas_threads"]
        assert set(reported) == pools
        assert set(reported.values()) == {1}


class TestLoadGate:
    """``repro load`` exits nonzero unless every session is complete."""

    def test_chaos_load_fails_on_a_short_column_stream(
        self, serve_process, monkeypatch, capsys
    ):
        port, _ = serve_process
        served = ResilientServeClient.served_columns
        # Drop all but three columns client-side: nothing diverges, but
        # each session ends error:IncompleteStream.
        monkeypatch.setattr(
            ResilientServeClient,
            "served_columns",
            lambda self: served(self)[:3],
        )
        code = main(
            ["load", "--port", str(port), "--chaos", "--sessions", "2",
             "--pushes", "4", "--block-size", "200"]
        )
        captured = capsys.readouterr()
        assert code == 1, captured.out
        assert "diverged_columns: 0" in captured.out
        assert "error:IncompleteStream" in captured.err

    def test_resilient_chaos_load_applies_chaos(self, serve_process, capsys):
        port, _ = serve_process
        code = main(
            ["load", "--port", str(port), "--resilient", "--chaos",
             "--chaos-seed", "7", "--sessions", "4", "--pushes", "8",
             "--block-size", "200"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        events = re.search(r"^  chaos_events_applied: (\d+)$", captured.out, re.M)
        assert events is not None, captured.out
        assert int(events.group(1)) > 0
        assert "diverged_columns: 0" in captured.out
