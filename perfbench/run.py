"""End-to-end benchmark of the network-locality reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record    # rewrite expected.json (seed 0)

One caller drives a closed loop of repetitions.  Each repetition is a fresh
interpreter (``child.py``) with the disk cache tier off, so its cold leg is
really cold and its peak RSS belongs to that one workload.  Repetitions run
until ``--seconds`` is used up (at least three, or two with ``--trace 1``);
every metric is the median over them.  Times are reported in reference
seconds: wall time scaled by a fixed calibration kernel timed next to each
leg (see ``REFERENCE_CALIBRATION_S``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones.  Every unit of output is checked: against the digests in
``expected.json`` for seed 0, and for every seed against the unit grid, the
cold leg (warm legs must reproduce it) and the first repetition (outputs
must not change between interpreters).  The last stdout line is one JSON
object; the whole run, spans included, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"

MIN_REPS = 3
MIN_TRACED_REPS = 2  # one untraced, one traced
RUN_LIMIT_S = 170  # repetitions still running this long into a run are killed

#: The calibration kernel's time (``child.calibration_s``) on an idle
#: 2-vCPU Intel Xeon at 2.0 GHz.  Every reported time is a repetition's wall
#: time scaled by this over the kernel's time in that repetition, so a host
#: slowed by other tenants does not read as slower code.
REFERENCE_CALIBRATION_S = 0.028

END_TO_END = (
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per layer, the work counters reported next to ``calls`` and ``self_s``.
LAYERS = {
    "apps": ("rows",),
    "comm": ("pairs",),
    "metrics": (),
    "mapping": (),
    "routing": ("pairs",),
    "model": (),
    "sim": ("packet_hops",),
    "telemetry": ("regions",),
}
CRITPATH_PARTS = ("critpath.match", "critpath.dag", "critpath.path")


class ChildFailed(RuntimeError):
    pass


def spawn(
    workload: str, seed: int, traced: bool, timeout: float = RUN_LIMIT_S
) -> dict[str, Any]:
    """One repetition in a fresh interpreter; set-up time measured from here."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)),
    ]
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"repetition still running after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-12:])
        raise ChildFailed(f"repetition exited {proc.returncode}:\n{tail}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("ready_at") - spawned_at
    rep["traced"] = traced
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: start the next repetition only if it should fit in time."""
    reps: list[dict] = []
    start = time.perf_counter()
    min_reps = MIN_TRACED_REPS if trace else MIN_REPS
    while True:
        traced = trace and len(reps) % 2 == 1
        timeout = RUN_LIMIT_S - (time.perf_counter() - start)
        reps.append(spawn(workload, seed, traced, timeout))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > seconds:
            return reps


# ------------------------------------------------------------------ checks


def check(
    reps: list[dict], expected: dict[str, list], seed: int
) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, degraded, problems) over every leg of every rep.

    ``expected`` maps a leg ("cold"/"warm") to its ``[unit_id, digest]``
    list recorded at seed 0.  A unit fails when it is missing or unexpected,
    differs from the recorded digest (seed 0), differs from the cold leg in
    its warm-stable part (warm legs), or differs from the first repetition.
    """
    attempted = failed = degraded = 0
    problems: list[str] = []
    first = {leg: _by_id(legs[0]) for leg, legs in _legs(reps[0]).items()}
    for n, rep in enumerate(reps):
        cold = _by_id(rep["cold"])
        for leg, runs in _legs(rep).items():
            recorded = dict(expected[leg])
            for run in runs:
                if run["error"]:
                    problems.append(f"rep {n} {leg} leg raised:\n{run['error']}")
                got = _by_id(run)
                for uid in list(recorded) + [u for u in got if u not in recorded]:
                    attempted += 1
                    why = _unit_problem(uid, got, recorded, cold, first[leg], leg, seed)
                    if why:
                        failed += 1
                        problems.append(f"rep {n} {leg} {uid}: {why}")
                    elif got[uid][2]:
                        degraded += 1
    return attempted, failed, degraded, problems


def _legs(rep: dict) -> dict[str, list[dict]]:
    return {"cold": [rep["cold"]], "warm": rep["warm"]}


def _by_id(run: dict) -> dict[str, tuple[str, str, bool]]:
    return {uid: (full, static, bad) for uid, full, static, bad in run["units"]}


def _unit_problem(uid, got, recorded, cold, first, leg, seed) -> str | None:
    if uid not in got:
        return "missing"
    if uid not in recorded:
        return "not in the expected grid"
    full, static, _ = got[uid]
    if seed == 0 and full != recorded[uid]:
        return "differs from the recorded digest"
    if leg == "warm" and static != cold.get(uid, (None, None))[1]:
        return "warm leg does not reproduce the cold leg"
    if full != first.get(uid, (None,))[0]:
        return "differs from the first repetition"
    return None


# ----------------------------------------------------------------- metrics


def scale(rep: dict, leg: str) -> float:
    """Factor turning a leg's wall times into reference seconds.

    Uses the calibration samples taken next to the leg: set-up is followed
    by the ``before`` samples, the cold leg sits between ``before`` and
    ``between``, the warm legs between ``between`` and ``after``.
    """
    points = {
        "setup": ("before",),
        "cold": ("before", "between"),
        "warm": ("between", "after"),
    }[leg]
    samples = [t for point in points for t in rep["calibration_s"][point]]
    return REFERENCE_CALIBRATION_S / statistics.median(samples)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    plain = [r for r in reps if not r["traced"]]
    return {
        "cold_s": statistics.median(
            r["cold"]["wall_s"] * scale(r, "cold") for r in plain
        ),
        "warm_s": statistics.median(
            statistics.median(w["wall_s"] for w in r["warm"]) * scale(r, "warm")
            for r in plain
        ),
        "setup_s": statistics.median(r["setup_s"] * scale(r, "setup") for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over the traced reps; cold leg unless the name says warm."""
    traced = [r for r in reps if r["traced"]]
    rows = [_layer_row(r) for r in traced]
    out = {
        name: (statistics.median(row[name][0] for row in rows), rows[0][name][1])
        for name in rows[0]
    }
    cold_untraced = end_to_end(reps)["cold_s"]
    cold_traced = statistics.median(
        r["cold"]["wall_s"] * scale(r, "cold") for r in traced
    )
    out["trace.overhead_s"] = (cold_traced - cold_untraced, "s")
    return out


def _layer_row(rep: dict) -> dict[str, tuple[float, str]]:
    cold, warm = rep["cold"], rep["warm"][0]
    row: dict[str, tuple[float, str]] = {}
    for layer, counters in LAYERS.items():
        stats = cold["layers"].get(layer, {})
        row[f"{layer}.calls"] = (stats.get("calls", 0), "count")
        row[f"{layer}.self_s"] = (stats.get("self_s", 0.0), "s")
        row[f"{layer}.warm_self_s"] = (warm["layers"].get(layer, {}).get("self_s", 0.0), "s")
        for counter in counters:
            row[f"{layer}.{counter}"] = (stats.get(counter, 0), "count")
    for part in CRITPATH_PARTS:
        row[f"{part}.self_s"] = (cold["layers"].get(part, {}).get("self_s", 0.0), "s")
        row[f"{part}.warm_self_s"] = (warm["layers"].get(part, {}).get("self_s", 0.0), "s")
    dag = cold["layers"].get("critpath.dag", {})
    row["critpath.events"] = (dag.get("events", 0), "count")
    row["critpath.edges"] = (dag.get("edges", 0), "count")
    for leg_name, leg in (("cold", cold), ("warm", warm)):
        for region, counts in leg["cache"].items():
            hits, misses = counts["hits"], counts["misses"]
            base = hits + misses
            prefix = f"cache.{region}.{leg_name}"
            row[f"{prefix}.hits"] = (hits, "count")
            row[f"{prefix}.misses"] = (misses, "count")
            row[f"{prefix}.hit_ratio"] = (hits / base if base else 0.0, "ratio")
        row[f"analysis.{'' if leg_name == 'cold' else 'warm_'}self_s"] = (
            leg["wall_s"] - leg["layer_root_s"], "s"
        )
    cold_factor, warm_factor = scale(rep, "cold"), scale(rep, "warm")
    row = {
        name: (
            value * (warm_factor if "warm" in name else cold_factor)
            if unit == "s" else value,
            unit,
        )
        for name, (value, unit) in row.items()
    }
    sim_s = row["sim.self_s"][0]
    row["sim.hops_per_s"] = (row["sim.packet_hops"][0] / sim_s if sim_s else 0.0, "1/s")
    return row


def spans_add_up(rep: dict) -> bool:
    """Layer self times + analysis.self_s == leg wall time, for every leg."""
    for leg in [rep["cold"], *rep["warm"]]:
        gap = abs(leg["layer_self_sum_s"] - leg["layer_root_s"])
        if gap > 1e-6 * leg["wall_s"] or leg["layer_root_s"] > leg["wall_s"]:
            return False
    return True


# ------------------------------------------------------------------ output


def envelope(args, reps: list[dict]) -> dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no sha
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": reps[0]["python"],
        "numpy": reps[0]["numpy"],
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": len(reps),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "loop": "closed, one caller, run_sweep(workers=1), disk cache off",
    }


def record() -> int:
    """Rewrite ``expected.json`` from one seed-0 repetition per workload."""
    expected = {}
    for name in WORKLOADS:
        rep = spawn(name, 0, traced=False)
        legs = {"cold": rep["cold"], "warm": rep["warm"][0]}
        if any(leg["error"] for leg in legs.values()):
            print(f"error: {name} raised while recording", file=sys.stderr)
            return 1
        expected[name] = {
            leg_name: [[uid, full] for uid, full, _, _ in leg["units"]]
            for leg_name, leg in legs.items()
        }
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")

    expected = json.loads(EXPECTED.read_text())[args.workload]
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted, failed, degraded, problems = check(reps, expected, args.seed)
    traced_ok = all(spans_add_up(r) for r in reps if r["traced"])
    if not traced_ok:
        problems.append("layer self times do not add up to the leg wall time")
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)

    env = envelope(args, reps)
    e2e = end_to_end(reps)
    units = dict(END_TO_END)
    if args.trace:
        layer_metrics = per_layer(reps)
        layer_metrics["failed_frac"] = (failed / attempted, "fraction")
        layer_metrics["degraded_frac"] = (degraded / attempted, "fraction")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer_metrics.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print(f"envelope: {json.dumps(env)}")
    print(f"{args.workload}: {len(reps)} repetitions, seed {args.seed}")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {units[name]}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f} ({failed}/{attempted} units)")
    print(f"  {'degraded_frac':<14} {degraded / attempted:12.4f} ({degraded}/{attempted} units)")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<34} {entry['value']:14.6g} {entry['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(
        {"envelope": env, "metrics": metrics, "units": {
            "attempted": attempted, "failed": failed, "degraded": degraded,
        }, "problems": problems, "reps": reps},
    ))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
