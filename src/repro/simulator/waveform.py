"""Waveform-level OFDM link for the nulling experiments.

Implements the :class:`~repro.core.nulling.NullingTransceiver` protocol
against simulated channels: training symbols are OFDM-modulated, pushed
through the transmit chains (power scaling, DAC, PA clipping), the
frequency-selective channels of both antennas, and the receive chain
(thermal noise, AGC, saturating ADC), then demodulated and
least-squares estimated per subcarrier — the real prototype's loop,
minus the air (§7.1: "MIMO nulling is implemented directly into the UHD
driver").

The dominant real-world limit on nulling depth is not thermal noise but
transmission-to-transmission calibration jitter (oscillator phase
noise, PA gain drift): each transmission is scaled by ``1 + epsilon``
with a small random complex ``epsilon``.  A jitter standard deviation
around 0.8% yields the ~42 dB mean nulling the paper reports (§4.1),
with the trial-to-trial spread of Fig. 7-7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import db_to_linear
from repro.hardware.adc import SaturatingAdc
from repro.hardware.mimo import MimoFrontEnd
from repro.ofdm.estimation import average_symbol_estimates, ls_channel_estimate
from repro.ofdm.modulation import OfdmConfig, OfdmModem
from repro.ofdm.preamble import training_burst
from repro.rf.channel import ChannelModel


@dataclass(frozen=True)
class WaveformLinkConfig:
    """Knobs of the simulated nulling link.

    Attributes:
        num_training_symbols: OFDM symbols averaged per measurement.
        impairment_std: per-transmission complex gain jitter (fraction).
        sounding_power_w: per-antenna power during channel sounding.
        agc_headroom: full-scale margin above the measured peak when
            the receiver sets its ADC range.
    """

    num_training_symbols: int = 8
    impairment_std: float = 0.006
    sounding_power_w: float = 0.00125
    agc_headroom: float = 1.5

    def __post_init__(self) -> None:
        if self.num_training_symbols < 1:
            raise ValueError("need at least one training symbol")
        if self.impairment_std < 0:
            raise ValueError("impairment must be non-negative")
        if self.sounding_power_w <= 0 or self.agc_headroom <= 1.0:
            raise ValueError("power must be positive and headroom above 1")


class SimulatedNullingLink:
    """A 2-TX / 1-RX OFDM link over frequency-selective channels."""

    def __init__(
        self,
        channel1: ChannelModel,
        channel2: ChannelModel,
        rng: np.random.Generator,
        config: WaveformLinkConfig | None = None,
        ofdm: OfdmConfig | None = None,
        front_end: MimoFrontEnd | None = None,
    ):
        self.config = config if config is not None else WaveformLinkConfig()
        self.modem = OfdmModem(ofdm)
        self.front_end = front_end if front_end is not None else MimoFrontEnd()
        self.rng = rng
        frequencies = self.modem.config.subcarrier_frequencies_hz()
        self._response1 = channel1.frequency_response(frequencies)
        self._response2 = channel2.frequency_response(frequencies)
        self.front_end.tx1.set_power_w(self.config.sounding_power_w)
        self.front_end.tx2.set_power_w(self.config.sounding_power_w)
        self._sounding_amplitude = math.sqrt(self.config.sounding_power_w)
        self._auto_range()

    # ------------------------------------------------------------------
    # Receiver auto-ranging (AGC)
    # ------------------------------------------------------------------

    def _set_adc_full_scale(self, peak_amplitude: float) -> None:
        full_scale = max(peak_amplitude * self.config.agc_headroom, 1e-12)
        self.front_end.rx.adc = SaturatingAdc(
            bits=self.front_end.rx.adc.bits, full_scale=full_scale
        )

    def _auto_range(self) -> None:
        """Set the ADC range from the un-nulled static signal — the
        starting condition in which the flash dominates."""
        peak = self._sounding_amplitude * float(
            np.max(np.abs(self._response1) + np.abs(self._response2))
        )
        self._set_adc_full_scale(peak)

    def rerange_to_residual(self, precoder: np.ndarray) -> None:
        """Tighten the ADC range around the nulled residual — the
        receive-gain boost the paper applies once nulling holds
        (§4.1.2 fn.)."""
        residual = self.measure_residual(precoder)
        scale = math.sqrt(self.front_end.tx1.power_w)
        peak = float(np.max(np.abs(residual))) * scale
        self._set_adc_full_scale(max(peak, 1e-12))

    # ------------------------------------------------------------------
    # Physical round trip
    # ------------------------------------------------------------------

    def _jitter(self) -> complex:
        if self.config.impairment_std == 0:
            return 1.0 + 0j
        sigma = self.config.impairment_std / math.sqrt(2.0)
        return 1.0 + complex(
            self.rng.normal(0.0, sigma), self.rng.normal(0.0, sigma)
        )

    def _round_trip(
        self, symbols1: np.ndarray | None, symbols2: np.ndarray | None
    ) -> np.ndarray:
        """Transmit frequency-domain symbol grids on each antenna
        (``None`` keeps an antenna silent) and return the received
        grid, in digital units, with receive gain removed."""
        received = None
        for symbols, chain, response in (
            (symbols1, self.front_end.tx1, self._response1),
            (symbols2, self.front_end.tx2, self._response2),
        ):
            if symbols is None:
                continue
            time_domain = self.modem.modulate(symbols)
            waveform = chain.transmit(time_domain)
            actual = self.modem.demodulate(waveform) * self._jitter()
            contribution = self.modem.apply_channel_frequency_domain(actual, response)
            received = contribution if received is None else received + contribution
        if received is None:
            raise ValueError("at least one antenna must transmit")
        air_time = self.modem.modulate(received)
        digital = self.front_end.receive(air_time, self.rng)
        gain_amplitude = math.sqrt(db_to_linear(self.front_end.rx.gain_db))
        return self.modem.demodulate(digital) / gain_amplitude

    # ------------------------------------------------------------------
    # NullingTransceiver protocol
    # ------------------------------------------------------------------

    def sound_antenna(self, antenna_index: int) -> np.ndarray:
        """Estimate the per-subcarrier channel of one antenna alone.

        Estimates are normalized to the sounding amplitude so they are
        in physical channel units regardless of later power boosts.
        """
        if antenna_index not in (0, 1):
            raise ValueError("antenna index must be 0 or 1")
        training = training_burst(self.modem.config, self.config.num_training_symbols)
        if antenna_index == 0:
            received = self._round_trip(training, None)
        else:
            received = self._round_trip(None, training)
        estimates = ls_channel_estimate(received, training)
        current = math.sqrt(
            self.front_end.tx1.power_w if antenna_index == 0 else self.front_end.tx2.power_w
        )
        return average_symbol_estimates(estimates) / current

    def measure_residual(self, precoder: np.ndarray) -> np.ndarray:
        """Transmit x on antenna 1 and p*x on antenna 2 concurrently;
        return the residual channel per subcarrier, in the same
        physical units as :meth:`sound_antenna`."""
        precoder = np.asarray(precoder, dtype=complex)
        training = training_burst(self.modem.config, self.config.num_training_symbols)
        received = self._round_trip(training, training * precoder)
        estimates = ls_channel_estimate(received, training)
        return average_symbol_estimates(estimates) / math.sqrt(self.front_end.tx1.power_w)

    def boost_power(self, boost_db: float) -> None:
        """Raise transmit power (§4.1.2); the receiver re-ranges later
        via :meth:`rerange_to_residual` if asked."""
        self.front_end.boost_power_db(boost_db)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def true_combined_channel(self, precoder: np.ndarray) -> np.ndarray:
        """Noise-free h1 + p*h2 per subcarrier (for tests)."""
        precoder = np.asarray(precoder, dtype=complex)
        return self._response1 + precoder * self._response2
