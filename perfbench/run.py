"""End-to-end benchmark of the REFER reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload refer-traffic --seed 1 \
        --seconds 20 --trace 0

One process, no worker processes or threads.  A pass makes every
``run_scenario`` call of the workload once (see ``workloads.py``);
passes repeat while the next one is expected to end within
``--seconds`` (at least one), and each metric is the median over
passes.  Every run's outputs are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics, in reference seconds
(``hostspeed.py``): the pass's ``run_scenario`` calls (``wall_s``), the
part up to each ``system.build()`` return (``setup_s``), the part
inside ``Simulator.run_until`` (``simulate_s``), and the process's peak
resident memory (``peak_rss_mib``).  ``--trace 1`` ignores
``--seconds``: it runs one untraced pass, then one pass with spans
around every layer (``layers.py``), prints where the time went and
reports the per-layer metrics; the spans are written to
``.perfbench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


class Pass:
    """Host-time intervals and check outcomes of one pass."""

    def __init__(self) -> None:
        # (start, end) time.perf_counter() stamps.
        self.runs: List[Tuple[float, float]] = []
        self.setups: List[Tuple[float, float]] = []
        self.simulations: List[Tuple[float, float]] = []
        self.events = 0
        self.attempted = 0
        self.failed = 0
        #: Output digest per run (None where the run raised).
        self.digests: List[Optional[str]] = []

    def seconds(self, spans, clock=None) -> float:
        """Summed length of ``spans``: host seconds, or reference
        seconds when a :class:`~hostspeed.SpeedClock` is given."""
        if clock is None:
            return sum(end - start for start, end in spans)
        return sum(clock.reference_seconds(start, end)
                   for start, end in spans)


def run_pass(workload, seed: int, phases, end_run=None) -> Pass:
    import repro.experiments.runner as runner
    from checks import digest, invariant_errors

    done = Pass()
    for system_name, config in workload.runs(seed):
        phases.reset()
        done.attempted += 1
        start = time.perf_counter()
        try:
            result = runner.run_scenario(system_name, config)
        except Exception:  # a failed run is counted, not fatal
            done.runs.append((start, time.perf_counter()))
            done.failed += 1
            done.digests.append(None)
            print(
                f"run {system_name} seed {config.seed} raised:\n"
                + traceback.format_exc(),
                file=sys.stderr,
            )
            if end_run is not None:
                end_run(phases.system)
            continue
        done.runs.append((start, time.perf_counter()))
        done.setups.append((start, phases.build_end))
        done.simulations.extend(phases.run_until_spans)
        done.events += phases.events
        done.digests.append(digest(result))
        errors = invariant_errors(result, phases.system)
        if errors:
            done.failed += 1
            print(
                f"run {system_name} seed {config.seed}: " + "; ".join(errors),
                file=sys.stderr,
            )
        if end_run is not None:
            end_run(phases.system)
    return done


def digest_failures(
    passes: List[Pass], expected: Optional[List[str]]
) -> int:
    """Runs whose digest differs from the pinned one (if given) or from
    the same run in the first pass (passes must repeat exactly)."""
    reference = expected if expected is not None else passes[0].digests
    failed = 0
    for done in passes:
        if len(done.digests) != len(reference):
            failed += abs(len(done.digests) - len(reference))
            print(
                f"{len(done.digests)} runs but {len(reference)} digests",
                file=sys.stderr,
            )
        for index, (got, want) in enumerate(zip(done.digests, reference)):
            if got is not None and got != want:
                failed += 1
                print(
                    f"run {index}: output digest {got} != expected {want}",
                    file=sys.stderr,
                )
    return failed


def result_line(
    passes: List[Pass], extra_failed: int, metrics: Dict[str, tuple]
) -> str:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + extra_failed
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def print_summary(name: str, seed: int, passes: List[Pass], failed: int,
                  metrics: Dict[str, tuple]) -> None:
    attempted = sum(p.attempted for p in passes)
    print(f"workload {name}  seed {seed}  passes {len(passes)}  "
          f"runs per pass {passes[0].attempted}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<34} {value:>14.6g} {unit}")
    print(f"  {'runs_failed_ratio':<34} {failed / attempted:>14.6g} "
          f"ratio ({failed} of {attempted} runs)")


def untraced(workload, seed: int, seconds: float, expected) -> int:
    from hostspeed import SpeedClock
    from layers import Phases

    phases = Phases()
    phases.install()
    passes: List[Pass] = []
    try:
        with SpeedClock() as clock:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(workload, seed, phases))
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(passes) > seconds:
                    break
    finally:
        phases.uninstall()
    extra = digest_failures(passes, expected)

    def median(spans: str) -> float:
        return statistics.median(
            p.seconds(getattr(p, spans), clock) for p in passes
        )

    metrics = {
        "wall_s": (median("runs"), "s"),
        "setup_s": (median("setups"), "s"),
        "simulate_s": (median("simulations"), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
    }
    failed = sum(p.failed for p in passes) + extra
    print_summary(workload.name, seed, passes, failed, metrics)
    raw = statistics.median(p.seconds(p.runs) for p in passes)
    print(f"  {'(wall, host seconds)':<34} {raw:>14.6g} s "
          f"({clock.samples} speed probes)")
    print(result_line(passes, extra, metrics))
    return 0


def traced(workload, seed: int, expected) -> int:
    from layers import (
        PER_LAYER, LayerCounts, Phases, layer_hooks, layer_metrics,
        self_seconds_by_layer,
    )
    from spans import Tracer, calibrate

    phases = Phases()
    phases.install()
    tracer = Tracer()
    tracer.overhead = calibrate()
    counts = LayerCounts(tracer)
    try:
        base = run_pass(workload, seed, phases)
        tracer.install(layer_hooks(counts))
        try:
            done = run_pass(workload, seed, phases, counts.end_run)
        finally:
            tracer.uninstall()
    finally:
        phases.uninstall()
    # Tracing must not change a single output.
    extra = digest_failures([base, done], expected)
    base_wall = base.seconds(base.runs)
    traced_wall = done.seconds(done.runs)
    tracer.fit_overhead(base_wall)
    values = layer_metrics(
        tracer, counts, done.events, base_wall,
        base.seconds(base.simulations), traced_wall,
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{seed}"
    kept = tracer.write(stem.with_suffix(".spans.csv.gz"))
    layer_self = self_seconds_by_layer(tracer)
    stem.with_suffix(".layers.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "spans_kept": kept,
        "untraced_host_s": {
            "wall_s": base_wall,
            "setup_s": base.seconds(base.setups),
            "simulate_s": base.seconds(base.simulations),
        },
        "wrapper_cost_s": tracer.overhead._asdict(),
        "wrapper_cost_scale": tracer.scale,
        "metrics": values,
        "spans": {
            name: {
                "calls": tracer.count(name),
                "total_s": tracer.seconds(name),
                "self_s": tracer.self_seconds(name),
            }
            for name in tracer.names
        },
    }, indent=2, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {seed}  traced pass "
          f"{traced_wall:.3f} s, untraced {base_wall:.3f} s "
          f"({traced_wall / base_wall:.2f}x)")
    accounted = sum(layer_self.values())
    print(f"  where the time went: traced self time per layer less the "
          f"wrappers' cost\n  (calibrated per call, scaled by "
          f"{tracer.scale:.2f} to the untraced pass), {accounted:.3f} s in "
          f"all ({kept} spans kept)")
    for layer, seconds in sorted(
        layer_self.items(), key=lambda item: -item[1]
    ):
        print(f"    {layer:<12} {seconds:>10.3f} s "
              f"{100.0 * seconds / accounted:>6.1f}%")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    print(result_line([base, done], extra, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="write this workload's default-seed digests to digests.json",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import repro
        from checks import pin, pinned
        from workloads import DEFAULT_SEED, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if pathlib.Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.pin:
        if args.seed != DEFAULT_SEED:
            parser.error(f"--pin needs --seed {DEFAULT_SEED}")
        from layers import Phases

        phases = Phases()
        phases.install()
        try:
            done = run_pass(workload, args.seed, phases)
        finally:
            phases.uninstall()
        if done.failed:
            print("perfbench: not pinning, a run failed", file=sys.stderr)
            return 1
        pin(workload.name, done.digests)
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = pinned(workload.name)
        if expected is None:
            print(f"perfbench: no digests pinned for {workload.name}",
                  file=sys.stderr)
            return 1
    if args.trace:
        return traced(workload, args.seed, expected)
    return untraced(workload, args.seed, args.seconds, expected)


if __name__ == "__main__":
    sys.exit(main())
