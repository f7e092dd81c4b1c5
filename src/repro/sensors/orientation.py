"""Orientation estimation by sensor fusion (the SmartPhoto method, IV-A).

Pipeline, exactly as the prototype describes:

1. **Accelerometer + magnetometer** give an absolute attitude estimate
   (the TRIAD construction Android's ``getRotationMatrix`` uses): gravity
   fixes the up axis, the geomagnetic field fixes east/north.
   Noisy but drift-free.
2. **Gyroscope** integration gives a smooth relative attitude: multiply
   the previous attitude by the rotation accumulated since the last
   reading.  Accurate over short spans but drifts with bias.
3. The two estimates are **linearly combined** and the result is
   **orthonormalized** so it stays a proper rotation matrix.

The paper reports a maximum error of five degrees for this pipeline; the
test suite reproduces that bound against the synthetic IMU.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..core.angular import normalize_angle
from .imu import ImuReading

__all__ = [
    "attitude_from_accel_mag",
    "integrate_gyroscope",
    "orthonormalize",
    "camera_azimuth",
    "OrientationFilter",
]


def attitude_from_accel_mag(
    accelerometer: Tuple[float, float, float],
    magnetometer: Tuple[float, float, float],
) -> np.ndarray:
    """Absolute attitude (device -> world rotation) from gravity + field.

    Raises ``ValueError`` when the readings are degenerate (free fall, or
    magnetic field parallel to gravity) -- callers should then rely on the
    gyroscope alone until valid readings return.
    """
    up_device = np.asarray(accelerometer, dtype=float)
    mag_device = np.asarray(magnetometer, dtype=float)
    up_norm = np.linalg.norm(up_device)
    if up_norm < 1e-6:
        raise ValueError("accelerometer reading is degenerate (free fall?)")
    up_device = up_device / up_norm
    east_device = np.cross(mag_device, up_device)
    east_norm = np.linalg.norm(east_device)
    if east_norm < 1e-6:
        raise ValueError("magnetic field is parallel to gravity; heading unobservable")
    east_device = east_device / east_norm
    north_device = np.cross(up_device, east_device)
    # Rows are the world axes expressed in device coordinates; applied to a
    # device-frame vector this yields its world components, i.e. the matrix
    # is world_from_device -- the attitude itself.
    return np.vstack([east_device, north_device, up_device])


def integrate_gyroscope(
    attitude: np.ndarray,
    gyroscope: Tuple[float, float, float],
    dt: float,
) -> np.ndarray:
    """Advance *attitude* by the gyroscope rate over *dt* seconds.

    Uses the Rodrigues closed form of the rotation-vector exponential;
    the angular velocity is in the device frame, so the increment
    multiplies on the right.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    omega = np.asarray(gyroscope, dtype=float)
    angle = float(np.linalg.norm(omega) * dt)
    if angle < 1e-12:
        return attitude.copy()
    axis = omega / np.linalg.norm(omega)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    increment = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return attitude @ increment


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Project *matrix* onto the nearest proper rotation (SVD polar step).

    This is the "further enhanced by orthonormalization" step of the
    prototype: a linear blend of two rotations is not itself a rotation,
    and repeated gyro integration accumulates numerical skew.
    """
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=float))
    rotation = u @ vt
    if np.linalg.det(rotation) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        rotation = u @ vt
    return rotation


def camera_azimuth(attitude: np.ndarray) -> float:
    """Camera pointing direction as the paper's aspect angle.

    The camera looks along the device ``+z`` axis; the result is the
    horizontal bearing of that axis, **clockwise from east** in
    ``[0, 2*pi)`` (the paper's angle convention).  Raises ``ValueError``
    when the camera points straight up or down (heading undefined).
    """
    optical_axis_world = np.asarray(attitude, dtype=float)[:, 2]
    east, north = float(optical_axis_world[0]), float(optical_axis_world[1])
    if math.hypot(east, north) < 1e-9:
        raise ValueError("camera is vertical; horizontal orientation undefined")
    return normalize_angle(math.atan2(-north, east))


class OrientationFilter:
    """Complementary filter fusing gyro integration with TRIAD fixes.

    ``blend`` is the weight of the absolute accel/mag estimate per update
    (the prototype's linear combination); higher values trust the noisy
    absolute estimate more, lower values trust the drifting gyro more.
    """

    def __init__(self, blend: float = 0.05) -> None:
        if not 0.0 <= blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {blend}")
        self.blend = blend
        self._attitude: Optional[np.ndarray] = None
        self._last_timestamp: Optional[float] = None

    def update(self, reading: ImuReading) -> np.ndarray:
        """Fuse one IMU sample; returns the current attitude estimate."""
        try:
            absolute = attitude_from_accel_mag(reading.accelerometer, reading.magnetometer)
        except ValueError:
            absolute = None

        if self._attitude is None:
            if absolute is None:
                raise ValueError("cannot initialize orientation from degenerate readings")
            self._attitude = absolute
            self._last_timestamp = reading.timestamp
            return self._attitude.copy()

        dt = reading.timestamp - self._last_timestamp
        if dt < 0.0:
            raise ValueError(f"readings must be time-ordered, got dt={dt}")
        predicted = integrate_gyroscope(self._attitude, reading.gyroscope, dt)
        if absolute is None:
            fused = predicted
        else:
            fused = (1.0 - self.blend) * predicted + self.blend * absolute
        self._attitude = orthonormalize(fused)
        self._last_timestamp = reading.timestamp
        return self._attitude.copy()

    def azimuth(self) -> float:
        """Current camera azimuth (clockwise from east)."""
        if self._attitude is None:
            raise ValueError("filter has not been initialized with a reading")
        return camera_azimuth(self._attitude)
