"""Multi-tenant workload composition and interference analysis.

Real systems co-schedule many jobs on one network; every analysis in this
library up to now ran a single application on a pristine topology.  This
package closes the gap:

- :mod:`repro.tenancy.allocate` — allocation policies that carve one
  machine's rank space into disjoint per-job rank sets (contiguous,
  round-robin, random).
- :mod:`repro.tenancy.compose` — the workload composer: generates each
  job's solo trace, remaps its ranks onto the allocated global IDs, and
  merges the per-job EventBlock streams into one composite
  :class:`~repro.core.trace.Trace` with a ``job_of_rank`` table that
  carries job identity through matrix build, both sim engines, and
  telemetry.
- :mod:`repro.tenancy.attribution` — per-job link-occupancy shares,
  congestion-region blame (victim vs. aggressor), and the per-job
  interference report (slowdown vs. solo baseline, blamed-bytes
  breakdown, shared-region count).

Background-noise aggressors (uniform / hot-spot) live with the other
synthetic apps in :mod:`repro.apps.noise`; the ``interference_aware``
routing policy that prices links with a victim's traffic matrix lives in
:mod:`repro.routing.interference`.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".allocate": ("ALLOCATIONS", "allocate_ranks", "job_of_rank_table"),
    ".attribution": (
        "InterferenceReport", "JobInterference", "RegionBlame", "attribute_regions",
        "interference_report", "per_job_link_loads", "render_interference_report",
        "victim_peak_link_load",
    ),
    ".compose": ("ComposedWorkload", "JobPlacement", "TenantSpec", "compose_workload"),
})
