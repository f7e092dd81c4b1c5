"""Table I: simulation settings.

Table I is a parameter table, not a measurement; the "reproduction" here
asserts the library's defaults equal it verbatim.
"""

from __future__ import annotations

from repro.core.metadata import DEFAULT_PHOTO_SIZE_BYTES
from repro.experiments.config import TableISettings

from bench_config import save_report


def test_table1_settings_verbatim():
    settings = TableISettings()
    rows = [
        ("photo size", f"{settings.photo_size_bytes // (1024 * 1024)}MB", "4MB"),
        ("effective angle", f"{settings.effective_angle_deg:.0f} deg", "30 deg"),
        ("fov range", str(settings.fov_range_deg), "(30.0, 60.0)"),
        ("range scale c", str(settings.range_scale_m), "(50.0, 100.0)"),
        ("P_thld", str(settings.validity_threshold), "0.8"),
        ("PROPHET", f"{settings.prophet_p_init}, {settings.prophet_beta}, "
                    f"{settings.prophet_gamma}", "0.75, 0.25, 0.98"),
        ("nodes", f"{settings.nodes_mit}/{settings.nodes_cambridge}", "97/54"),
        ("sim time", f"{settings.sim_hours_mit:.0f}/{settings.sim_hours_cambridge:.0f} hr",
         "300/200 hr"),
    ]
    lines = ["Table I: simulation settings (library default vs paper)"]
    for name, ours, paper in rows:
        assert ours == paper, f"{name}: {ours} != {paper}"
        lines.append(f"  {name:16s} {ours}")
    assert settings.photo_size_bytes == DEFAULT_PHOTO_SIZE_BYTES
    save_report("table1_settings", "\n".join(lines))

