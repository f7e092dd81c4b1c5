"""Tests for the sensor substrate: IMU simulation, fusion, GPS, capture.

The headline claim to reproduce from Section IV-A: the fused orientation
estimate has a maximum error of about five degrees.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.angular import angle_difference
from repro.core.geometry import Point
from repro.sensors.camera import CameraSpec, MetadataAcquisition
from repro.sensors.gps import GpsSimulator
from repro.sensors.imu import GEOMAGNETIC_FIELD, GRAVITY, ImuReading, ImuSimulator, rotation_about_z
from repro.sensors.orientation import (
    OrientationFilter,
    attitude_from_accel_mag,
    camera_azimuth,
    integrate_gyroscope,
    orthonormalize,
)


def reference_attitude(azimuth: float) -> np.ndarray:
    """Level camera pointing *azimuth* clockwise from east."""
    base = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return rotation_about_z(-azimuth) @ base


class TestImuSimulator:
    def test_noiseless_accelerometer_measures_gravity(self):
        imu = ImuSimulator(accel_noise_std=0.0, mag_noise_std=0.0, gyro_noise_std=0.0,
                           gyro_bias_std=0.0, seed=0)
        reading = imu.read(np.eye(3), np.zeros(3), 0.0)
        np.testing.assert_allclose(reading.accelerometer, [0.0, 0.0, GRAVITY], atol=1e-9)
        np.testing.assert_allclose(reading.magnetometer, GEOMAGNETIC_FIELD, atol=1e-9)

    def test_rotated_device_sees_rotated_field(self):
        imu = ImuSimulator(accel_noise_std=0.0, mag_noise_std=0.0, gyro_noise_std=0.0,
                           gyro_bias_std=0.0, seed=0)
        attitude = rotation_about_z(math.pi / 2)
        reading = imu.read(attitude, np.zeros(3), 0.0)
        expected = attitude.T @ GEOMAGNETIC_FIELD
        np.testing.assert_allclose(reading.magnetometer, expected, atol=1e-9)

    def test_bias_is_constant_per_instance(self):
        imu = ImuSimulator(gyro_noise_std=0.0, seed=3)
        r1 = imu.read(np.eye(3), np.zeros(3), 0.0)
        r2 = imu.read(np.eye(3), np.zeros(3), 1.0)
        np.testing.assert_allclose(r1.gyroscope, r2.gyroscope, atol=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ImuSimulator().read(np.eye(2), np.zeros(3), 0.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ImuSimulator(accel_noise_std=-1.0)


class TestTriad:
    def test_recovers_identity_attitude(self):
        estimated = attitude_from_accel_mag((0.0, 0.0, GRAVITY), tuple(GEOMAGNETIC_FIELD))
        np.testing.assert_allclose(estimated, np.eye(3), atol=1e-9)

    def test_recovers_arbitrary_yaw(self):
        for azimuth in (0.3, 1.5, 3.0, 5.5):
            attitude = reference_attitude(azimuth)
            accel = attitude.T @ np.array([0.0, 0.0, GRAVITY])
            mag = attitude.T @ GEOMAGNETIC_FIELD
            estimated = attitude_from_accel_mag(tuple(accel), tuple(mag))
            np.testing.assert_allclose(estimated, attitude, atol=1e-9)

    def test_free_fall_rejected(self):
        with pytest.raises(ValueError):
            attitude_from_accel_mag((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    def test_parallel_field_rejected(self):
        with pytest.raises(ValueError):
            attitude_from_accel_mag((0.0, 0.0, 9.8), (0.0, 0.0, 42.0))


class TestGyroIntegration:
    def test_zero_rate_is_identity(self):
        attitude = reference_attitude(1.0)
        np.testing.assert_allclose(
            integrate_gyroscope(attitude, (0.0, 0.0, 0.0), 1.0), attitude
        )

    def test_integrates_known_rotation(self):
        # Spin about the device y (up, for the level reference) axis.
        attitude = reference_attitude(0.0)
        rate_world = np.array([0.0, 0.0, -0.5])  # clockwise seen from above
        rate_device = attitude.T @ rate_world
        advanced = integrate_gyroscope(attitude, tuple(rate_device), 1.0)
        expected = reference_attitude(0.5)
        np.testing.assert_allclose(advanced, expected, atol=1e-9)

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            integrate_gyroscope(np.eye(3), (0.0, 0.0, 1.0), -1.0)


class TestOrthonormalize:
    def test_fixes_scaled_matrix(self):
        rotation = rotation_about_z(0.7)
        fixed = orthonormalize(1.1 * rotation)
        np.testing.assert_allclose(fixed, rotation, atol=1e-9)

    def test_output_is_rotation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            noisy = rotation_about_z(rng.uniform(0, 6)) + rng.normal(0, 0.1, (3, 3))
            fixed = orthonormalize(noisy)
            np.testing.assert_allclose(fixed @ fixed.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(fixed) == pytest.approx(1.0)


class TestCameraAzimuth:
    def test_reference_points_east(self):
        assert camera_azimuth(reference_attitude(0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_azimuth_roundtrip(self):
        for azimuth in (0.5, 2.0, 4.5):
            assert camera_azimuth(reference_attitude(azimuth)) == pytest.approx(azimuth)

    def test_vertical_camera_rejected(self):
        vertical = np.eye(3)  # device z == world z: camera points straight up
        with pytest.raises(ValueError):
            camera_azimuth(vertical)


class TestOrientationFilter:
    def test_paper_accuracy_bound_static_hold(self):
        """Fused azimuth error stays within ~5 degrees (Section IV-A)."""
        acquisition = MetadataAcquisition()
        worst = 0.0
        for true_azimuth in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
            measured = acquisition.measure_orientation(float(true_azimuth))
            worst = max(worst, angle_difference(measured, float(true_azimuth)))
        assert math.degrees(worst) <= 5.0

    def test_fusion_beats_gyro_only_under_bias(self):
        """Gyro-only drifts with bias; the acc/mag blend stays anchored."""
        imu = ImuSimulator(accel_noise_std=0.1, mag_noise_std=1.0,
                           gyro_noise_std=0.01, gyro_bias_std=0.05, seed=1)
        true_attitude = reference_attitude(1.0)
        fused = OrientationFilter(blend=0.05)
        gyro_only = OrientationFilter(blend=0.0)
        for k in range(400):
            reading = imu.read(true_attitude, np.zeros(3), k * 0.02)
            fused.update(reading)
            gyro_only.update(reading)
        fused_error = angle_difference(fused.azimuth(), 1.0)
        gyro_error = angle_difference(gyro_only.azimuth(), 1.0)
        assert fused_error < gyro_error

    def test_tracks_rotation(self):
        imu = ImuSimulator(accel_noise_std=0.05, mag_noise_std=0.5,
                           gyro_noise_std=0.005, gyro_bias_std=0.0, seed=2)
        fusion = OrientationFilter(blend=0.05)
        rate = -0.2  # clockwise rad/s about up
        dt = 0.02
        azimuth = 0.0
        for k in range(500):
            attitude = reference_attitude(azimuth)
            reading = imu.read(attitude, np.array([0.0, 0.0, rate]), k * dt)
            fusion.update(reading)
            azimuth = (azimuth - rate * dt) % (2 * math.pi)
        assert math.degrees(angle_difference(fusion.azimuth(), azimuth)) < 6.0

    def test_rejects_unordered_timestamps(self):
        imu = ImuSimulator(seed=0)
        fusion = OrientationFilter()
        fusion.update(imu.read(reference_attitude(0.0), np.zeros(3), 1.0))
        with pytest.raises(ValueError):
            fusion.update(imu.read(reference_attitude(0.0), np.zeros(3), 0.5))

    def test_azimuth_before_init_rejected(self):
        with pytest.raises(ValueError):
            OrientationFilter().azimuth()

    def test_blend_validation(self):
        with pytest.raises(ValueError):
            OrientationFilter(blend=1.5)


class TestGps:
    def test_zero_cep_is_exact(self):
        gps = GpsSimulator(cep_m=0.0)
        assert gps.fix(Point(10.0, 20.0)) == Point(10.0, 20.0)

    def test_median_error_matches_cep(self):
        gps = GpsSimulator(cep_m=6.5, seed=0)
        truth = Point(0.0, 0.0)
        errors = sorted(gps.fix(truth).distance_to(truth) for _ in range(4000))
        median = errors[len(errors) // 2]
        assert median == pytest.approx(6.5, rel=0.1)

    def test_paper_error_band(self):
        """Most fixes land within the paper's 5-8.5 m tolerable band x2."""
        gps = GpsSimulator(cep_m=6.5, seed=1)
        truth = Point(0.0, 0.0)
        errors = [gps.fix(truth).distance_to(truth) for _ in range(1000)]
        within = sum(1 for e in errors if e <= 17.0) / len(errors)
        assert within > 0.95

    def test_rejects_negative_cep(self):
        with pytest.raises(ValueError):
            GpsSimulator(cep_m=-1.0)


class TestMetadataAcquisition:
    def test_capture_produces_valid_metadata(self):
        acquisition = MetadataAcquisition(camera=CameraSpec(fov_deg=45.0))
        photo = acquisition.capture(
            Point(100.0, 200.0), true_azimuth=1.0, photo_id=3, owner_id=7
        )
        assert photo.photo_id == 3
        assert photo.owner_id == 7
        assert photo.metadata.field_of_view == pytest.approx(math.radians(45.0))
        # r = 50 / tan(22.5 deg) ~ 120.7 m.
        assert photo.metadata.coverage_range == pytest.approx(120.7, abs=0.2)
        assert photo.location.distance_to(Point(100.0, 200.0)) < 40.0
        assert math.degrees(angle_difference(photo.metadata.orientation, 1.0)) < 8.0

    def test_photo_id_draws_no_noise(self):
        captured = [
            MetadataAcquisition(
                imu=ImuSimulator(seed=3), gps=GpsSimulator(seed=4)
            ).capture(Point(10.0, 20.0), true_azimuth=2.0, photo_id=photo_id)
            for photo_id in (0, 99)
        ]
        assert [p.photo_id for p in captured] == [0, 99]
        assert captured[0].metadata == captured[1].metadata

    def test_camera_spec_validation(self):
        with pytest.raises(ValueError):
            CameraSpec(fov_deg=0.0)
        with pytest.raises(ValueError):
            CameraSpec(range_scale_m=0.0)

    def test_acquisition_validation(self):
        with pytest.raises(ValueError):
            MetadataAcquisition(settle_samples=0)
        with pytest.raises(ValueError):
            MetadataAcquisition(sample_interval_s=0.0)

    def test_true_attitude_roundtrip(self):
        acquisition = MetadataAcquisition()
        for azimuth in (0.0, 1.2, 3.7):
            attitude = acquisition.true_attitude(azimuth)
            assert camera_azimuth(attitude) == pytest.approx(azimuth, abs=1e-9)
