"""Cross-layer validation: invariant checker and differential fuzz harness.

The pipeline keeps interchangeable implementations of several stages
(reference vs batched simulators, five routing policies, five collective
engines, cached vs cold paths).  This package makes their correctness an
always-on artifact instead of a test-time hope:

- :mod:`.base` / :mod:`.invariants` — a registry of cheap conservation
  checks runnable on any pipeline artifact (byte, hop, packet, and busy-
  time conservation; Eq. 4/5 bounds; cache roundtrip identity);
- :mod:`.suite` — runs the catalogue over the study grid
  (``repro check``);
- :mod:`.fuzz` / :mod:`.shrink` — seeded differential fuzzing across
  the two shipped implementation pairs (simulation engines, cache tiers),
  with minimal-reproducer shrinking (``repro fuzz``).

See ``docs/validation.md`` for the catalogue with references.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "REGISTRY", "CheckContext", "Invariant", "Violation", "all_invariants", "invariant",
        "run_invariants",
    ),
    ".fuzz": (
        "CI_SEEDS", "FuzzCase", "FuzzOutcome", "FuzzReport", "draw_case", "run_case", "run_fuzz",
    ),
    ".shrink": ("shrink_case",),
    ".suite": (
        "ScenarioResult", "SuiteReport", "attach_simulation", "build_static_context",
        "cache_roundtrip_context", "run_check_suite",
    ),
})
