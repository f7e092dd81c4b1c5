#!/usr/bin/env python
"""Automatic metadata acquisition: the Section IV-A sensor pipeline.

Simulates a phone held at a sequence of true headings, runs the
accelerometer + magnetometer + gyroscope fusion with orthonormalization,
and reports the orientation error per shot -- reproducing the prototype's
"maximum error of five degrees" claim.  Also shows the GPS error model
and the fov -> coverage-range derivation (r = c * cot(phi/2)).

Run:  python examples/sensor_fusion_demo.py
"""

import math

import numpy as np

from repro.core.angular import angle_difference
from repro.core.geometry import Point
from repro.sensors import CameraSpec, GpsSimulator, ImuSimulator, MetadataAcquisition


def main() -> None:
    acquisition = MetadataAcquisition(
        camera=CameraSpec(fov_deg=45.0, range_scale_m=50.0),
        imu=ImuSimulator(seed=7),
        gps=GpsSimulator(cep_m=6.5, seed=7),
    )

    print("camera: fov=45 deg -> coverage range "
          f"r = 50 * cot(22.5 deg) = {acquisition.camera.coverage_range_m:.1f} m\n")

    print("orientation fusion (acc + mag + gyro, orthonormalized):")
    print("  true-heading  measured  error")
    worst = 0.0
    for heading_deg in range(0, 360, 30):
        true = math.radians(heading_deg)
        measured = acquisition.measure_orientation(true)
        error = math.degrees(angle_difference(measured, true))
        worst = max(worst, error)
        print(f"  {heading_deg:11d}  {math.degrees(measured):8.1f}  {error:5.2f} deg")
    print(f"  worst error: {worst:.2f} deg "
          f"({'within' if worst <= 5.0 else 'OUTSIDE'} the paper's 5-degree bound)\n")

    print("GPS fixes around a true position (CEP = 6.5 m):")
    truth = Point(1000.0, 2000.0)
    errors = [acquisition.gps.fix(truth).distance_to(truth) for _ in range(1000)]
    errors.sort()
    print(f"  median error: {errors[len(errors) // 2]:.1f} m, "
          f"95th percentile: {errors[int(0.95 * len(errors))]:.1f} m\n")

    photo = acquisition.capture(truth, true_azimuth=math.radians(120.0), photo_id=0, owner_id=1)
    print("one end-to-end capture:")
    print(f"  measured location: ({photo.location.x:.1f}, {photo.location.y:.1f}) "
          f"(true: {truth.x:.0f}, {truth.y:.0f})")
    print(f"  measured heading:  {math.degrees(photo.metadata.orientation):.1f} deg "
          "(true: 120.0)")
    print(f"  coverage range:    {photo.metadata.coverage_range:.1f} m, "
          f"size {photo.size_bytes // (1024 * 1024)} MB")


if __name__ == "__main__":
    main()
