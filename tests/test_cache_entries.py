"""The disk cache's entry names, pinned for a small fixed run.

A disk entry is named ``v{CACHE_VERSION}-{region}-{digest}{suffix}``, the
digest taken over the region's key.  A key that drifts (a reordered tuple,
a renamed token, a dropped input) changes the name, so every earlier disk
cache silently stops being read, or, worse, two inputs start to share one
entry.  This test runs one Table-3 row (AMG@8) and a 2-topology x
2-mapping x 2-routing LULESH@64 sweep (simulated with telemetry, so
route incidences are walked and stored) against an empty disk tier, which
writes trace, matrix, mapping (with its slot entries), incidence and
summary entries, and compares the sorted names with
``tests/golden/cache_entries.json``.

Re-record the golden with ``PYTHONPATH=src python tests/test_cache_entries.py``
only together with a :data:`repro.cache.CACHE_VERSION` bump: a key that
changes under the same version aliases the entries other runs wrote.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro import cache

GOLDEN = Path(__file__).parent / "golden" / "cache_entries.json"


def _fixed_run_entries(disk_dir: Path) -> list[str]:
    """The sorted disk entry names the fixed run writes into ``disk_dir``."""
    from repro.analysis.sweep import SweepSpec, run_sweep
    from repro.analysis.tables import build_table3_row

    cache.clear(memory=True)
    cache.configure(disk_dir)
    try:
        build_table3_row(cache.cached_trace("AMG", 8))
        run_sweep(
            SweepSpec(
                apps=(("LULESH", 64),),
                topologies=("torus3d", "fattree"),
                mappings=("consecutive", "greedy"),
                routings=("minimal", "valiant"),
                telemetry=True,
                sim_volume_scale=64.0,
            )
        )
    finally:
        cache.configure(disable_disk=True)
        cache.clear(memory=True)
    return sorted(path.name for path in Path(disk_dir).iterdir())


def _region(name: str) -> str:
    return name.split("-")[1]


def test_disk_entry_names_are_unchanged(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = _fixed_run_entries(tmp_path)
    assert got[0].startswith(f"v{cache.CACHE_VERSION}-")
    assert set(map(_region, golden)) == {
        "trace", "matrix", "mapping", "incidence", "summary"
    }
    # Name the regions whose keys drifted before the full lists.
    drifted = Counter(map(_region, set(got) ^ set(golden)))
    assert not drifted, f"disk keys drifted in regions {dict(drifted)}"
    assert got == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_fixed_run_entries(Path(tmp)), indent=1) + "\n")
    print(f"re-recorded {GOLDEN}")
