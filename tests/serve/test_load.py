"""The load generator: reproducible traffic, honest reporting."""

import asyncio

from repro.serve import SensingServer, ServeConfig
from repro.serve.load import run_load

FAST = {"window_size": 64, "hop": 16, "subarray_size": 24}


class TestRunLoad:
    def test_reports_throughput_latency_and_occupancy(self):
        async def run():
            server = SensingServer(ServeConfig())
            port = await server.start()
            try:
                return await run_load(
                    "127.0.0.1",
                    port,
                    sessions=3,
                    seconds=0.8,
                    block_size=160,
                    config=FAST,
                )
            finally:
                await server.shutdown()

        report = asyncio.run(run())
        assert report.sessions == 3
        assert report.passed
        assert report.diverged_columns == 0
        assert report.columns > 0
        assert report.columns_per_s > 0
        assert report.requests >= report.sessions  # at least open per session
        assert 0 < report.latency_percentile(0.5) <= report.latency_percentile(0.99)
        summary = report.summary()
        assert summary["incomplete_sessions"] == 0
        assert summary["batch_occupancy_mean"] is not None
        # The server saw the traffic the report claims.
        assert report.server_stats["server"]["columns_served"] == report.columns

    def test_unreachable_server_counts_errors_not_crashes(self):
        async def run():
            # A port nothing listens on: every session fails to connect.
            return await run_load(
                "127.0.0.1", 1, sessions=2, seconds=0.2, config=FAST
            )

        report = asyncio.run(run())
        assert report.incomplete_sessions == 2
        assert [o.outcome for o in report.outcomes] == ["error:ConnectionError"] * 2
        assert report.all_defined and not report.passed
        assert report.columns == 0

    def test_plain_run_counts_columns_that_differ_from_offline(self, monkeypatch):
        import repro.serve.load as load

        offline = load.compute_spectrogram

        def shifted(samples, config):
            spectrogram = offline(samples, config)
            spectrogram.power[0] += 1.0  # the reference's first column
            return spectrogram

        monkeypatch.setattr(load, "compute_spectrogram", shifted)

        async def run():
            server = SensingServer(ServeConfig())
            port = await server.start()
            try:
                return await run_load(
                    "127.0.0.1", port, sessions=2, seconds=0.3, block_size=160,
                    config=FAST,
                )
            finally:
                await server.shutdown()

        report = asyncio.run(run())
        assert report.columns > 2
        assert report.diverged_columns == 2  # column 0 of each session
        assert not report.passed
