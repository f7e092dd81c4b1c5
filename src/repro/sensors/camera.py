"""Automatic metadata acquisition: the prototype's capture pipeline (IV-A).

Ties the sensor substrate together: when a (simulated) photo is taken, the
camera reports its field-of-view, the GPS provides a noisy location, the
orientation filter provides the camera azimuth, and the coverage range is
derived as ``r = c * cot(phi / 2)`` -- producing the exact
:class:`~repro.core.metadata.PhotoMetadata` tuple the coverage model
consumes, with realistic sensor error baked in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.geometry import Point, coverage_range_from_fov
from ..core.metadata import DEFAULT_PHOTO_SIZE_BYTES, Photo, PhotoMetadata
from .gps import GpsSimulator
from .imu import ImuSimulator, rotation_about_z
from .orientation import OrientationFilter

__all__ = ["CameraSpec", "MetadataAcquisition"]


@dataclass(frozen=True)
class CameraSpec:
    """Static camera characteristics.

    ``fov_deg`` is the diagonal field-of-view the camera API reports
    (Android exposes it directly); ``range_scale_m`` is the application
    constant ``c`` of Section IV-A (50 m for building-sized targets).
    """

    fov_deg: float = 45.0
    range_scale_m: float = 50.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError(f"fov must be in (0, 180) degrees, got {self.fov_deg}")
        if self.range_scale_m <= 0.0:
            raise ValueError(f"range scale must be positive, got {self.range_scale_m}")

    @property
    def fov_rad(self) -> float:
        return math.radians(self.fov_deg)

    @property
    def coverage_range_m(self) -> float:
        return coverage_range_from_fov(self.fov_rad, self.range_scale_m)


class MetadataAcquisition:
    """End-to-end simulated capture: true pose in, measured metadata out.

    The device is assumed held level (camera axis horizontal), so the true
    attitude is a rotation of the reference attitude about the up axis.
    The reference attitude points the camera east (azimuth 0).
    """

    #: Reference attitude: device +z (camera) east, +y up, +x north (a
    #: right-handed frame) -> the columns express the device axes in the
    #: world (east, north, up) frame.
    _REFERENCE = np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )

    def __init__(
        self,
        camera: CameraSpec = CameraSpec(),
        imu: Optional[ImuSimulator] = None,
        gps: Optional[GpsSimulator] = None,
        filter_blend: float = 0.05,
        settle_samples: int = 25,
        sample_interval_s: float = 0.02,
    ) -> None:
        if settle_samples < 1:
            raise ValueError(f"settle_samples must be at least 1, got {settle_samples}")
        if sample_interval_s <= 0.0:
            raise ValueError(f"sample interval must be positive, got {sample_interval_s}")
        self.camera = camera
        self.imu = imu if imu is not None else ImuSimulator()
        self.gps = gps if gps is not None else GpsSimulator()
        self.filter_blend = filter_blend
        self.settle_samples = settle_samples
        self.sample_interval_s = sample_interval_s

    def true_attitude(self, azimuth: float) -> np.ndarray:
        """Ground-truth attitude for a level camera pointing at *azimuth*
        (clockwise from east)."""
        # Clockwise-from-east is a negative mathematical angle about up.
        return rotation_about_z(-azimuth) @ self._REFERENCE

    def measure_orientation(self, true_azimuth: float, start_time: float = 0.0) -> float:
        """Run the fusion pipeline on a static hold and return the estimate.

        Mimics the prototype: the phone is held static for a short period
        (a couple dozen IMU samples) while the complementary filter
        converges, then the azimuth is read out.
        """
        attitude = self.true_attitude(true_azimuth)
        stationary = np.zeros(3)
        fusion = OrientationFilter(blend=self.filter_blend)
        timestamp = start_time
        for _ in range(self.settle_samples):
            reading = self.imu.read(attitude, stationary, timestamp)
            fusion.update(reading)
            timestamp += self.sample_interval_s
        return fusion.azimuth()

    def capture(
        self,
        true_location: Point,
        true_azimuth: float,
        photo_id: int,
        taken_at: float = 0.0,
        owner_id: Optional[int] = None,
        size_bytes: int = DEFAULT_PHOTO_SIZE_BYTES,
    ) -> Photo:
        """Take photo *photo_id*: returns a :class:`Photo` with *measured* metadata."""
        measured_location = self.gps.fix(true_location)
        measured_azimuth = self.measure_orientation(true_azimuth, start_time=taken_at)
        metadata = PhotoMetadata(
            location=measured_location,
            coverage_range=self.camera.coverage_range_m,
            field_of_view=self.camera.fov_rad,
            orientation=measured_azimuth,
        )
        return Photo(
            metadata=metadata,
            photo_id=photo_id,
            size_bytes=size_bytes,
            taken_at=taken_at,
            owner_id=owner_id,
        )
