"""wpml benchmark.

    python3 perfbench/run.py --workload golden|countermodel|sweeps \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  One
process, one thread, closed loop: each item starts when the previous one
has returned.  The run repeats passes of seeded items until S seconds
have gone by, checks every result against its expected answer outside
the timed region, and prints the metrics by name and unit; its last line
is one JSON object.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json.  With --trace 1 they are the per-layer ones, from the
traced set-up and the workload's first passes, each item run once traced
and once untraced for the tracing overhead; that run does a fixed amount
of work, so S does not apply.  Details of each run go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("golden", "countermodel", "sweeps")

SETUP_SAMPLES = 9  # cold processes timed per run for setup_s
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

# Host speed on a shared box drifts by a quarter within minutes.  A
# calibration point (the median of CAL_SAMPLES runs of a fixed stdlib
# loop) is taken between items after every CAL_EVERY_S of item time, and
# once more after the last item.  Item times are reported at the reference
# speed: measured time * CAL_REF_S / the mean of the calibration points
# around the item, CAL_WINDOW on either side of it.  A window, not the
# point next to the item, because single points flicker more than items
# do; not the whole run, because speed drifts within a run.  CAL_REF_S is
# the loop's time on the reference box (2-core x86, Python 3.11) when
# quiet.  Measured times are printed next to the reported ones.
CAL_EVERY_S = 0.25
CAL_SAMPLES = 3
CAL_ROUNDS = 15_000
CAL_REF_S = 0.0055
CAL_WINDOW = 5

# A set-up probe is one cold process of under a second, which the in-process
# loop tracks poorly.  So the probes alternate with cold reference processes
# that start the same interpreter and run the same loop SETUP_REF_ROUNDS
# times, and each probe is scaled by the mean of the reference processes
# just before and just after it.  SETUP_REF_S is a reference process's time
# on the reference box when quiet.
SETUP_REF_ROUNDS = 400_000
SETUP_REF_S = 0.2
REFERENCE_PROGRAM = f"""
table = {{}}
for i in range({SETUP_REF_ROUNDS}):
    key = (i % 211, i % 7)
    table[key] = table.get(key, 0) + 1
print("ready", flush=True)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cal_units": "cal",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}
# Printed and kept in the output file, not in BENCHMARK.json: raw wall
# times follow host speed, which drifts more between runs than any bound.
MEASURED_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "setup_s": "s"}


def _loop() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(CAL_ROUNDS):
        key = (i % 211, i % 7)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds for a fixed loop of dict and tuple work, the kind of work
    the program does: the median of CAL_SAMPLES runs."""
    return statistics.median(_loop() for _ in range(CAL_SAMPLES))


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads  # imports wpml
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    return workloads


def _setup(workloads, name: str, seed: int):
    """Everything before the first item: inputs, warmed catalogs and
    screening sets, and the first pass."""
    wl = workloads.WORKLOADS[name](seed)
    wl.warm()
    return wl, wl.pass_items(0)


def _time_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning `cmd` to its 'ready' line; waits for its exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode})")
    return took


def measure_setup(args) -> tuple[list[float], list[float], list[float]]:
    """Cold-process set-up times, spawn to the child's 'ready' line, at the
    reference speed and as measured, and the reference processes' times."""
    probe = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    reference = [sys.executable, "-c", REFERENCE_PROGRAM]
    refs = [_time_to_ready(reference)]
    scaled, measured = [], []
    for _ in range(SETUP_SAMPLES):
        measured.append(_time_to_ready(probe))
        refs.append(_time_to_ready(reference))
        scaled.append(measured[-1] * SETUP_REF_S * 2 / (refs[-2] + refs[-1]))
    return scaled, measured, refs


class Run:
    """Item timings, calibration points and check outcomes of one run."""

    def __init__(self):
        self.passes: list[list[float]] = []  # item times per pass
        self.cal: list[float] = [calibrate()]  # calibration points, seconds
        self.cal_before: list[list[int]] = []  # per pass, each item's last point
        self._since_cal = 0.0
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.problems: list[str] = []
        self._pending: list = []

    def time_item(self, item, thunk) -> float:
        """Seconds `thunk` took; its result waits for `check_pass`."""
        start = time.perf_counter()
        try:
            res, err = thunk(), None
        except Exception:  # an item that raises counts as failed
            res, err = None, traceback.format_exc()
        took = time.perf_counter() - start
        self._pending.append((item, (res, err)))
        return took

    def run_pass(self, items) -> None:
        times, before = [], []
        for item in items:
            if self._since_cal >= CAL_EVERY_S:
                self.cal.append(calibrate())
                self._since_cal = 0.0
            before.append(len(self.cal) - 1)
            times.append(self.time_item(item, item.run))
            self._since_cal += times[-1]
        self.passes.append(times)
        self.cal_before.append(before)

    def finish(self) -> None:
        self.cal.append(calibrate())

    def at_reference_speed(self) -> list[list[float]]:
        """Item times per pass, each scaled by the calibration points
        around it: up to CAL_WINDOW before it and CAL_WINDOW after it."""
        def speed(i: int) -> float:
            return statistics.fmean(self.cal[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW])

        return [
            [t * CAL_REF_S / speed(i) for t, i in zip(times, before)]
            for times, before in zip(self.passes, self.cal_before)
        ]

    def check_pass(self) -> None:
        for item, (res, err) in self._pending:
            self.attempted += 1
            if err is not None:
                ok, decided, why = False, False, err.strip().splitlines()[-1]
            else:
                try:
                    ok, decided, why = item.check(res)
                except Exception:
                    ok, decided, why = False, False, traceback.format_exc()
            self.decided += ok and decided
            if not ok:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{item.label}: {why}")
        self._pending = []


def _tail_share(n_items: int) -> float:
    """The highest percentile of a pass that leaves TAIL_BEYOND items above
    it (all of them when a pass is shorter)."""
    return (n_items - TAIL_BEYOND) / n_items if n_items > TAIL_BEYOND else 1.0


def _quantile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    x = share * (len(ordered) - 1)
    i = int(x)
    if i + 1 >= len(ordered):
        return ordered[-1]
    return ordered[i] + (x - i) * (ordered[i + 1] - ordered[i])


def _timings(passes: list[list[float]]) -> dict:
    """Item time percentiles over all items of all passes."""
    pooled = [t for times in passes for t in times]
    return {
        "item_p50_ms": 1e3 * statistics.median(pooled),
        "item_tail_ms": 1e3 * _quantile(pooled, _tail_share(len(passes[0]))),
    }


def end_to_end(run: Run, setup, setup_measured, setup_refs) -> tuple[dict, dict]:
    scaled = run.at_reference_speed()
    metrics = {"setup_s": statistics.median(setup)}
    metrics.update(_timings(scaled))
    metrics.update(
        {
            "cal_units": statistics.median(sum(ts) for ts in scaled) / CAL_REF_S,
            "decided_share": run.decided / run.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    n_items = len(run.passes[0])
    pooled = [t for times in run.passes for t in times]
    detail = {
        "measured": {
            "items_per_s": len(pooled) / sum(pooled),
            **_timings(run.passes),
            "setup_s": statistics.median(setup_measured),
        },
        "passes": len(run.passes),
        "items_per_pass": n_items,
        "tail_percentile": 100 * _tail_share(n_items),
        "pass_item_s": [sum(ts) for ts in run.passes],
        "pass_item_times_s": run.passes,
        "calibration_ms": [1e3 * c for c in run.cal],
        "setup_samples_s": setup,
        "setup_measured_samples_s": setup_measured,
        "setup_reference_s": setup_refs,
        "failed_share": run.failed / run.attempted,
    }
    return metrics, detail


def environment(load_before, run: Run, budget_was_set: bool) -> dict:
    cal = run.cal
    q1, median, q3 = statistics.quantiles(cal, n=4) if len(cal) > 1 else cal * 3
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "wpml_budget": os.environ.get("WPML_BUDGET", "unset"),
        "wpml_budget_was_set": budget_was_set,
        "calibration": {
            "points": len(cal),
            "min_ms": 1e3 * min(cal),
            "mean_ms": 1e3 * statistics.fmean(cal),
            "median_ms": 1e3 * median,
            "max_ms": 1e3 * max(cal),
            "iqr_share": (q3 - q1) / median,
        },
    }


def _write_out(name: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _layer_units() -> dict:
    from tracing import per_layer_spec

    return dict(per_layer_spec())


def traced(workloads, args, run: Run) -> tuple[dict, dict]:
    """Set-up and the workload's first `traced_passes` passes, traced.
    Each item also runs untraced right next to its traced run (in
    alternating order), so host drift cancels out of the overhead."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wl, items = tracer.span("setup", lambda: _setup(workloads, args.workload, args.seed))
    finally:
        tracer.uninstall()
    traced_s, plain_s = [], []
    for index in range(wl.traced_passes):
        items = items if index == 0 else wl.pass_items(index)
        for i, item in enumerate(items):
            for with_trace in (i % 2 == 0, i % 2 == 1):
                if not with_trace:
                    plain_s.append(run.time_item(item, item.run))
                    continue
                tracer.install()
                try:
                    thunk = lambda item=item: tracer.span("item", item.run)  # noqa: E731
                    traced_s.append(run.time_item(item, thunk))
                finally:
                    tracer.uninstall()
        run.check_pass()
    metrics = tracer.layer_metrics(sum(traced_s) / sum(plain_s))
    detail = {"traced_s": sum(traced_s), "untraced_s": sum(plain_s), "spans": tracer.spans()}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # WPML_BUDGET changes algebra_validates and frame_validates bounds.
    budget_was_set = os.environ.pop("WPML_BUDGET", None) is not None
    workloads = _import_program()

    if args.setup_probe:
        _setup(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    load_before = list(os.getloadavg())
    run = Run()
    if args.trace:
        metrics, detail = traced(workloads, args, run)
        units = _layer_units()
    else:
        setup = measure_setup(args)
        wl, items = _setup(workloads, args.workload, args.seed)
        start = time.perf_counter()
        index = 0
        while True:
            run.run_pass(items)
            run.check_pass()
            index += 1
            if time.perf_counter() - start >= args.seconds:
                break
            items = wl.pass_items(index)
        run.finish()
        metrics, detail = end_to_end(run, *setup)
        units = END_TO_END_UNITS
    env = environment(load_before, run, budget_was_set)

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{run.attempted} items attempted, {run.failed} failed"
    )
    for problem in run.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in detail.get("measured", {}).items():
        print(f"measured {name} {value:.6g} {MEASURED_UNITS[name]}")
    print(f"failed_share {run.failed / run.attempted:.6g} share")
    cal = env["calibration"]
    print(
        f"env python {env['python']} nproc {env['nproc']} "
        f"load {env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f} "
        f"calibration mean {cal['mean_ms']:.3f} ms "
        f"(iqr {100 * cal['iqr_share']:.1f}% over {cal['points']} points) "
        f"WPML_BUDGET {env['wpml_budget']}"
    )
    mode = "trace" if args.trace else "run"
    _write_out(
        f"{mode}-{args.workload}-seed{args.seed}.json",
        {"metrics": metrics, "detail": detail, "environment": env},
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
