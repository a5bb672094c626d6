"""Scene composition: device geometry, wall, clutter, and humans.

A :class:`Scene` turns geometry into physics: for any time instant it
produces the set of propagation :class:`~repro.rf.channel.Path` objects
from each transmit antenna to the receive antenna — the direct path,
the wall flash, static clutter returns, and the moving-human returns
the tracking pipeline is after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.constants import WAVELENGTH_M
from repro.environment.geometry import Point, angle_from_x_axis, distance
from repro.environment.human import Human
from repro.environment.objects import StaticReflector
from repro.environment.walls import Room
from repro.rf.antennas import LP0965_LIKE, DirectionalAntenna
from repro.rf.channel import ChannelModel, Path, PathKind
from repro.rf.propagation import free_space_amplitude, radar_amplitude


@dataclass(frozen=True)
class DeviceGeometry:
    """Antenna placement of the Wi-Vi device.

    Two transmit antennas and one receive antenna (§3.1), all
    directional, facing +x (toward the wall).  The receive antenna sits
    between the transmitters.
    """

    tx1: Point = field(default_factory=lambda: Point(0.0, -0.35))
    tx2: Point = field(default_factory=lambda: Point(0.0, 0.35))
    rx: Point = field(default_factory=lambda: Point(0.0, 0.0))
    antenna: DirectionalAntenna = LP0965_LIKE

    def boresight_angle_to(self, antenna_position: Point, target: Point) -> float:
        """Angle (radians) of ``target`` off the +x boresight as seen
        from ``antenna_position``."""
        return angle_from_x_axis(target - antenna_position)


class Scene:
    """Everything the device can sense.

    Args:
        room: the imaged room (wall + extent).  ``None`` means free
            space (the unobstructed baseline of Fig. 7-6).
        humans: moving subjects inside the room.
        static_reflectors: furniture and other stationary clutter.
        device: antenna geometry.
        wavelength_m: carrier wavelength.
    """

    def __init__(
        self,
        room: Room | None = None,
        humans: Sequence[Human] = (),
        static_reflectors: Sequence[StaticReflector] = (),
        device: DeviceGeometry | None = None,
        wavelength_m: float = WAVELENGTH_M,
        interior_absorption_db_per_m: float = 0.3,
        multipath: bool = False,
        interior_wall_reflectivity_db: float = -9.0,
    ):
        if interior_absorption_db_per_m < 0:
            raise ValueError("absorption must be non-negative")
        if interior_wall_reflectivity_db > 0:
            raise ValueError("reflectivity must be <= 0 dB")
        self.room = room
        self.humans = list(humans)
        self.static_reflectors = list(static_reflectors)
        self.device = device if device is not None else DeviceGeometry()
        self.wavelength_m = wavelength_m
        #: Whether moving-scatterer returns also bounce off the room's
        #: interior walls on the way back (one extra reflection).  §7.3
        #: argues — and the tests verify — that these indirect paths
        #: are too weak to confuse the tracker: "the direct path from a
        #: moving human to Wi-Vi is much stronger than indirect paths
        #: which bounce off the internal walls of the room".
        self.multipath = multipath
        self.interior_wall_reflectivity_db = interior_wall_reflectivity_db
        #: Excess attenuation accumulated per metre of depth inside the
        #: furnished room (one-way, dB/m).  Free space does not absorb
        #: at 2.4 GHz, but cluttered interiors scatter energy out of
        #: the direct path; obstructed-indoor models put the effective
        #: path-loss exponent above 2, which this term captures.
        self.interior_absorption_db_per_m = interior_absorption_db_per_m

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------

    def _antenna_pair_gain(self, tx: Point, via: Point, rx: Point) -> float:
        """Amplitude gain of both antennas for a path tx -> via -> rx."""
        tx_gain = self.device.antenna.amplitude_gain(
            self.device.boresight_angle_to(tx, via)
        )
        rx_gain = self.device.antenna.amplitude_gain(
            self.device.boresight_angle_to(rx, via)
        )
        return tx_gain * rx_gain

    def _wall_crossings_amplitude(self, target: Point) -> float:
        """Amplitude factor for the round trip through the wall toward
        ``target`` (1.0 when there is no wall or the target is on the
        device side)."""
        if self.room is None:
            return 1.0
        if not self.room.wall.blocks(target):
            return 1.0
        depth_m = max(target.x - self.room.wall.far_face_x_m, 0.0)
        absorption_db = 2.0 * self.interior_absorption_db_per_m * depth_m
        return self.room.wall.material.round_trip_amplitude * 10.0 ** (
            -absorption_db / 20.0
        )

    def direct_path(self, tx: Point) -> Path:
        """The TX -> RX leakage path.

        Both antennas face the wall, so this path sees the back/side
        lobes of both patterns — "significantly attenuated because
        Wi-Vi uses directional transmit and receive antennas focused
        towards the wall" (§4.1).
        """
        rx = self.device.rx
        separation = max(distance(tx, rx), 0.05)
        tx_gain = self.device.antenna.amplitude_gain(
            self.device.boresight_angle_to(tx, rx)
        )
        rx_gain = self.device.antenna.amplitude_gain(
            self.device.boresight_angle_to(rx, tx)
        )
        amplitude = tx_gain * rx_gain * free_space_amplitude(separation, self.wavelength_m)
        return Path(amplitude, separation, PathKind.DIRECT)

    def flash_path(self, tx: Point) -> Path | None:
        """The specular wall reflection (the flash, §4).

        Image-source model: reflect the transmitter across the wall
        plane; the path unfolds to a straight line of length
        ``|image - rx|``, attenuated like free space over that length
        and scaled by the wall's reflection coefficient.
        """
        if self.room is None:
            return None
        wall_x = self.room.wall.position_x_m
        image = Point(2.0 * wall_x - tx.x, tx.y)
        rx = self.device.rx
        total = distance(image, rx)
        # The bounce point on the wall, for antenna pattern evaluation.
        fraction = (wall_x - rx.x) / (image.x - rx.x)
        bounce = Point(wall_x, rx.y + fraction * (image.y - rx.y))
        amplitude = (
            self._antenna_pair_gain(tx, bounce, rx)
            * self.room.wall.material.reflection_amplitude
            * free_space_amplitude(total, self.wavelength_m)
        )
        return Path(amplitude, total, PathKind.FLASH)

    def scatterer_path(
        self, tx: Point, position: Point, rcs_m2: float, kind: PathKind
    ) -> Path:
        """A bistatic bounce off a point scatterer at ``position``."""
        rx = self.device.rx
        d_tx = max(distance(tx, position), 0.1)
        d_rx = max(distance(rx, position), 0.1)
        amplitude = (
            self._antenna_pair_gain(tx, position, rx)
            * radar_amplitude(d_tx, d_rx, rcs_m2, self.wavelength_m)
            * self._wall_crossings_amplitude(position)
        )
        return Path(amplitude, d_tx + d_rx, kind)

    def _interior_bounce_paths(
        self, tx: Point, position: Point, rcs_m2: float
    ) -> list[Path]:
        """Indirect moving paths: tx -> scatterer -> interior wall -> rx.

        Image-source construction: the return leg reflects once off a
        side or back wall, modelled by mirroring the *scatterer* across
        the wall plane for the return leg and applying the interior
        reflection coefficient.
        """
        if self.room is None:
            return []
        rx = self.device.rx
        y_low, y_high = self.room.y_range
        _, x_back = self.room.x_range
        mirrors = [
            Point(position.x, 2.0 * y_low - position.y),   # left wall
            Point(position.x, 2.0 * y_high - position.y),  # right wall
            Point(2.0 * x_back - position.x, position.y),  # back wall
        ]
        reflection_amplitude = 10.0 ** (self.interior_wall_reflectivity_db / 20.0)
        paths = []
        for image in mirrors:
            d_tx = max(distance(tx, position), 0.1)
            d_return = max(distance(image, rx), 0.1)
            amplitude = (
                self._antenna_pair_gain(tx, position, rx)
                * radar_amplitude(d_tx, d_return, rcs_m2, self.wavelength_m)
                * self._wall_crossings_amplitude(position)
                * reflection_amplitude
            )
            paths.append(Path(amplitude, d_tx + d_return, PathKind.MOVING))
        return paths

    def paths(self, tx: Point, time_s: float) -> list[Path]:
        """All propagation paths from ``tx`` to the receiver at ``time_s``."""
        result = [self.direct_path(tx)]
        flash = self.flash_path(tx)
        if flash is not None:
            result.append(flash)
        for reflector in self.static_reflectors:
            result.append(
                self.scatterer_path(
                    tx, reflector.position, reflector.rcs_m2, PathKind.STATIC
                )
            )
        for human in self.humans:
            for scatterer in human.scatterers(time_s):
                result.append(
                    self.scatterer_path(
                        tx, scatterer.position, scatterer.rcs_m2, PathKind.MOVING
                    )
                )
                if self.multipath:
                    result.extend(
                        self._interior_bounce_paths(
                            tx, scatterer.position, scatterer.rcs_m2
                        )
                    )
        return result

    def channel(self, tx: Point, time_s: float = 0.0) -> ChannelModel:
        """The full channel from ``tx`` to the receiver at ``time_s``."""
        return ChannelModel(self.paths(tx, time_s), self.wavelength_m)

    def channels(self, time_s: float = 0.0) -> tuple[ChannelModel, ChannelModel]:
        """Channels from both transmit antennas at ``time_s``."""
        return (
            self.channel(self.device.tx1, time_s),
            self.channel(self.device.tx2, time_s),
        )

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------

    def moving_paths(self, tx: Point, time_s: float) -> list[Path]:
        """Only the moving paths (direct bounces plus, when enabled,
        interior-wall multipath)."""
        result = []
        for human in self.humans:
            for scatterer in human.scatterers(time_s):
                result.append(
                    self.scatterer_path(
                        tx, scatterer.position, scatterer.rcs_m2, PathKind.MOVING
                    )
                )
                if self.multipath:
                    result.extend(
                        self._interior_bounce_paths(
                            tx, scatterer.position, scatterer.rcs_m2
                        )
                    )
        return result

    def moving_gain(self, tx: Point, time_s: float) -> complex:
        """Coherent narrowband gain of only the moving paths."""
        total = 0j
        for path in self.moving_paths(tx, time_s):
            total += path.gain(self.wavelength_m)
        return total

    def static_gain(self, tx: Point) -> complex:
        """Coherent narrowband gain of the static paths (flash + clutter
        + direct)."""
        total = self.direct_path(tx).gain(self.wavelength_m)
        flash = self.flash_path(tx)
        if flash is not None:
            total += flash.gain(self.wavelength_m)
        for reflector in self.static_reflectors:
            total += self.scatterer_path(
                tx, reflector.position, reflector.rcs_m2, PathKind.STATIC
            ).gain(self.wavelength_m)
        return total

    def flash_to_target_ratio_db(self, time_s: float = 0.0) -> float:
        """How much stronger the static flash is than the moving-target
        return, in dB — the crux of the flash-effect problem (§4)."""
        tx = self.device.tx1
        static_power = abs(self.static_gain(tx)) ** 2
        moving_power = abs(self.moving_gain(tx, time_s)) ** 2
        if moving_power == 0:
            raise ValueError("no moving targets in the scene")
        return 10.0 * math.log10(static_power / moving_power)
