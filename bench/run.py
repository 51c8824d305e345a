"""Campaign benchmark for crfidsim.

    python3 bench/run.py --workload update-clean --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

A run builds the workload from the checkout's own `src/`, measures one
closed-loop caller for --seconds, checks every output, and prints as its
last stdout line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Everything a run reports (provenance, traffic properties,
the model-statistics fingerprint, per-phase layer tables, error_rate) is
also written to bench/results/; a traced run writes its spans there too.

End-to-end metrics, all in host time:

- throughput: ops completed over the wall time of the timed phase;
- session_p50_ms / session_p99_ms: median and tail of one session's wall
  time. The tail is p99, or the highest percentile with at least ten
  samples beyond it when there are fewer than 1000. A session is one
  prover_update including TokenSim construction (update-*); for the
  batched workloads, the mean session of one unit: a grid pass's time
  over its cold starts (power-sweep) or a mc_key_failure call's time
  over its sessions (mc-keyfail, whose tail is the slowest call);
- setup_s: the workload's set-up as a process pays it, from the package
  import to the end of the build (device synthesis, enrollment), before
  the first timed op. The run sets up in its own process and again in
  fresh interpreters (their start-up excluded), each on the run's seed,
  and reports the median, so no set-up can reuse another's per-process
  caches;
- peak_rss_mb: peak resident set of the workload's process.
"""

from __future__ import annotations

import os

# One thread for numpy, OpenBLAS and OpenMP; must precede the numpy import.
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("update-clean", "update-tamper", "mc-keyfail", "power-sweep")
PACKAGE_MODULES = ("crfidsim.cli", "crfidsim.bch", "crfidsim.enroll", "crfidsim.fuzzy",
                   "crfidsim.gen2", "crfidsim.mac", "crfidsim.powersim",
                   "crfidsim.protocol", "crfidsim.puf")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
# exit code of a run that completed but whose outputs failed their checks;
# fail() exits 2 and an uncaught exception 1
EXIT_INCORRECT = 3

END_TO_END = (
    ("throughput", "ops/s"),
    ("session_p50_ms", "ms"),
    ("session_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, (span name, stat)); stats derived otherwise are filled in per_layer()
PER_LAYER = (
    ("puf.readout.calls", "count", ("puf.readout", "calls")),
    ("puf.readout.self_ms", "ms", ("puf.readout", "self_ms")),
    ("puf.trng_next.calls", "count", ("puf.trng_next", "calls")),
    ("puf.trng_next.self_ms", "ms", ("puf.trng_next", "self_ms")),
    ("puf.synth_device.self_ms", "ms", ("puf.synth_device", "self_ms")),
    ("enroll.enroll_device.calls", "count", ("enroll.enroll_device", "calls")),
    ("enroll.enroll_device.self_ms", "ms", ("enroll.enroll_device", "self_ms")),
    ("enroll.challenge_to_response.calls", "count", ("enroll.challenge_to_response", "calls")),
    ("enroll.challenge_to_response.self_ms", "ms", ("enroll.challenge_to_response", "self_ms")),
    ("fuzzy.fe_gen.calls", "count", ("fuzzy.fe_gen", "calls")),
    ("fuzzy.fe_gen.self_ms", "ms", ("fuzzy.fe_gen", "self_ms")),
    ("fuzzy.fe_rec.calls", "count", ("fuzzy.fe_rec", "calls")),
    ("fuzzy.fe_rec.self_ms", "ms", ("fuzzy.fe_rec", "self_ms")),
    ("fuzzy.fe_rec.failures", "count", ("fuzzy.fe_rec", "raised")),
    ("fuzzy.mc_key_failure.self_ms", "ms", ("fuzzy.mc_key_failure", "self_ms")),
    ("fuzzy.run_sessions.calls", "count", ("fuzzy.run_sessions", "calls")),
    ("fuzzy.run_sessions.self_ms", "ms", ("fuzzy.run_sessions", "self_ms")),
    ("fuzzy.build_decode_tables.self_ms", "ms", ("fuzzy.build_decode_tables", "self_ms")),
    ("bch.correct.calls", "count", ("bch.correct", "calls")),
    ("bch.correct.self_ms", "ms", ("bch.correct", "self_ms")),
    ("bch.correct.failures", "count", ("bch.correct", "raised")),
    ("bch.syndrome.calls", "count", ("bch.syndrome", "calls")),
    ("bch.syndrome.self_ms", "ms", ("bch.syndrome", "self_ms")),
    ("mac.cmac.calls", "count", ("mac.cmac", "calls")),
    ("mac.cmac.self_ms", "ms", ("mac.cmac", "self_ms")),
    ("mac.cmac.bytes", "bytes", ("mac.cmac", "bytes")),
    ("mac.sc.calls", "count", ("mac.sc", "calls")),
    ("mac.sc.self_ms", "ms", ("mac.sc", "self_ms")),
    ("gen2.encode.calls", "count", ("gen2.encode", "calls")),
    ("gen2.encode.self_ms", "ms", ("gen2.encode", "self_ms")),
    ("gen2.decode.calls", "count", ("gen2.decode", "calls")),
    ("gen2.decode.self_ms", "ms", ("gen2.decode", "self_ms")),
    ("gen2.decode.rejects", "count", ("gen2.decode", "raised")),
    ("gen2.Gen2Frame.to_hex.calls", "count", ("gen2.Gen2Frame.to_hex", "calls")),
    ("gen2.Gen2Frame.to_hex.self_ms", "ms", ("gen2.Gen2Frame.to_hex", "self_ms")),
    ("protocol.token_boot.calls", "count", ("protocol.token_boot", "calls")),
    ("protocol.token_boot.self_ms", "ms", ("protocol.token_boot", "self_ms")),
    ("protocol.token_handle.calls", "count", ("protocol.token_handle", "calls")),
    ("protocol.token_handle.self_ms", "ms", ("protocol.token_handle", "self_ms")),
    ("protocol.token_handle.naks", "count", ("protocol.token_handle", "naks")),
    ("protocol.prover_update.self_ms", "ms", ("protocol.prover_update", "self_ms")),
    ("protocol.attempts", "count", None),
    ("protocol.outcome.COMMITTED", "count", ("protocol.prover_update", "outcome.COMMITTED")),
    ("protocol.outcome.REJECTED_BY_TOKEN", "count",
     ("protocol.prover_update", "outcome.REJECTED_BY_TOKEN")),
    ("protocol.outcome.KEY_RECOVERY_FAILURE", "count",
     ("protocol.prover_update", "outcome.KEY_RECOVERY_FAILURE")),
    ("protocol.outcome.BROWNOUT_ABORTED", "count",
     ("protocol.prover_update", "outcome.BROWNOUT_ABORTED")),
    ("protocol.outcome.TIMEOUT", "count", ("protocol.prover_update", "outcome.TIMEOUT")),
    ("powersim.cold_start_session.calls", "count", ("powersim.cold_start_session", "calls")),
    ("powersim.cold_start_session.self_ms", "ms", ("powersim.cold_start_session", "self_ms")),
    ("powersim.step.calls", "count", ("powersim.step", "calls")),
    ("powersim.step.self_ms", "ms", ("powersim.step", "self_ms")),
    ("powersim.step.brownouts", "count", ("powersim.step", "brownouts")),
    ("powersim.step.host_us", "us", None),
    ("powersim.charge.calls", "count", ("powersim.charge", "calls")),
    ("cli.import_ms", "ms", None),
    ("bench.op.self_ms", "ms", ("bench.op", "self_ms")),
    ("trace.accounted", "ratio", None),
    ("trace.overhead", "ratio", None),
)


# ----------------------------------------------------------------- helpers

def fail(message: str, code: int = 2) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_package() -> float:
    """Import the checkout's crfidsim in this process; seconds taken."""
    if not (SRC / "crfidsim" / "__init__.py").is_file():
        fail(f"no crfidsim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    took = time.perf_counter() - t0
    origin = Path(sys.modules["crfidsim"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"crfidsim was imported from {origin}, not from {SRC}")
    return took


@dataclass
class Setup:
    workload: object
    ctx: object
    import_s: float
    build_s: float
    tracer: object = None


def set_up(name: str, seed: int, trace: bool = False) -> Setup:
    """Import the package and build the workload once, timing both.

    With trace, the build runs under a Tracer, which is returned uninstalled.
    """
    import_s = import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        ctx = workload.build()
    finally:
        build_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return Setup(workload, ctx, import_s, build_s, tracer)


def child_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """(import_s, build_s) of set_up in a fresh interpreter, its start-up excluded."""
    code = (f"import json, sys\nsys.path.insert(0, {str(HERE)!r})\nimport run\n"
            f"s = run.set_up({name!r}, {seed!r})\nprint(json.dumps([s.import_s, s.build_s]))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=CHILD_TIMEOUT_S)
    import_s, build_s = json.loads(out.stdout.strip().splitlines()[-1])
    return import_s, build_s


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): p99, or the highest percentile with >= 10 samples
    beyond it when there are fewer than 1000; the maximum below 20 samples."""
    import numpy as np

    n = len(samples)
    if n < 20:
        return 100.0, max(samples)
    q = min(99.0, 100.0 * (1.0 - 10.0 / n))
    return q, float(np.percentile(samples, q))


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import cryptography
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "thread_caps": THREAD_CAPS,
    }


# ---------------------------------------------------------------- measuring

@dataclass
class Run:
    """What one closed-loop pass left behind.

    Records past the workload's window keep only its traffic_keys, and
    session latencies go to one flat array, so memory stays nearly flat
    however many units a run completes.
    """

    t0: float
    wall: float = 0.0
    units: int = 0
    ops: int = 0
    failed: int = 0
    records: list[dict] = field(default_factory=list)
    latencies: array = field(default_factory=lambda: array("d"))

    @property
    def throughput(self) -> float:
        return self.ops / self.wall


def run_units(workload, ctx, stream: str, min_units: int, seconds: float,
              tracer=None) -> Run:
    """Closed loop over the stream's inputs until both limits are met.

    A unit that raises counts all its ops as failed.
    """
    from tracing import OP_SPAN

    inputs = workload.inputs(stream)
    run = Run(t0=time.perf_counter())
    deadline = run.t0 + seconds
    for i, inp in enumerate(inputs):
        if i >= min_units and time.perf_counter() >= deadline:
            break
        try:
            if tracer is None:
                res = workload.run(ctx, inp)
            else:
                tracer.session = i
                res = tracer.span(OP_SPAN, workload.run, ctx, inp)
            ops, failed, record = res.ops, res.failed, res.record
            run.latencies.extend(res.latencies)
        except Exception as exc:  # a raising op is a failed op, not a crash
            ops = failed = workload.unit_ops
            record = {**inp, "error": repr(exc)}
        run.wall = time.perf_counter() - run.t0
        run.units += 1
        run.ops += ops
        run.failed += failed
        if i >= workload.window:
            record = {k: record[k] for k in workload.traffic_keys if k in record}
        run.records.append(record)
    if tracer is not None:
        tracer.session = -1
    return run


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = set_up(name, seed, trace)
    workload, ctx, tracer = setup.workload, setup.ctx, setup.tracer
    setups = [(setup.import_s, setup.build_s)]
    from workloads import digest

    untimed: list[Run] = []
    if trace:
        # Traced: set-up once (traced), one untraced warm-up unit, the fixed
        # window traced, then an equal untraced window on another input
        # stream for the overhead ratio.
        untimed.append(run_units(workload, ctx, "warmup", 1, 0.0))
        tracer.install()
        try:
            timed = run_units(workload, ctx, "main", workload.window, 0.0, tracer)
        finally:
            tracer.uninstall()
        untimed.append(run_units(workload, ctx, "overhead", workload.window, 0.0))
    else:
        setups += [child_setup_seconds(name, seed) for _ in range(SETUP_REPEATS - 1)]
        timed = run_units(workload, ctx, "main", workload.window, seconds)

    if not timed.latencies:
        fail("no unit of work completed; see the records for the errors")
    window = timed.records[: workload.window]
    attempted = sum(r.ops for r in [timed, *untimed])
    failed = sum(r.failed for r in [timed, *untimed]) + workload.final_check(ctx, window)

    fingerprint, traffic = workload.summarize(window, timed.records)
    fingerprint["sha256"] = digest(fingerprint)
    traffic["units_timed"] = timed.units
    traffic["fingerprint_window_units"] = len(window)

    tail_q, tail = tail_percentile(timed.latencies)
    import_s = [imp for imp, _ in setups]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "traffic": traffic,
        "fingerprint": fingerprint,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "timing": {
            "import_s": import_s,
            "build_s": [build for _, build in setups],
            "timed_wall_s": timed.wall,
            "session_samples": len(timed.latencies),
            "session_tail_percentile": tail_q,
        },
    }
    if not trace:
        report["metrics"] = {
            "throughput": timed.throughput,
            "session_p50_ms": 1e3 * statistics.median(timed.latencies),
            "session_p99_ms": 1e3 * tail,
            "setup_s": statistics.median([imp + build for imp, build in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        untraced = untimed[-1].throughput
        report["metrics"] = per_layer(tracer, 1e3 * setup.import_s,
                                      timed.wall, untraced=untraced,
                                      traced=timed.throughput)
        report["layers_by_phase"] = {
            "setup": tracer.layer_stats(phases=(False,)),
            "timed": tracer.layer_stats(phases=(True,)),
        }
        report["timing"]["untraced_window_throughput"] = untraced
        RESULTS.mkdir(exist_ok=True)
        tracer.write_tsv(RESULTS / f"{name}-seed{seed}-spans.tsv")
    return report


def per_layer(tracer, import_ms: float, timed_wall: float, untraced: float,
              traced: float) -> dict:
    stats = tracer.layer_stats()

    def get(span: str, stat: str) -> float:
        return float(stats.get(span, {}).get(stat, 0.0))

    step_calls = get("powersim.step", "calls")
    accounted = sum(st["self_ms"] for st in tracer.layer_stats(phases=(True,)).values())
    derived = {
        "protocol.attempts": get("protocol.prover_update", "calls")
        + get("protocol.Channel.reset_token", "calls"),
        "powersim.step.host_us": (1e3 * get("powersim.step", "self_ms") / step_calls
                                  if step_calls else 0.0),
        "cli.import_ms": import_ms,
        "trace.accounted": accounted / (1e3 * timed_wall),
        "trace.overhead": untraced / traced,
    }
    return {m: derived[m] if src is None else get(*src) for m, _, src in PER_LAYER}


# ------------------------------------------------------------------ output

def units_of(trace: bool) -> dict:
    return {m: u for m, u, *_ in (PER_LAYER if trace else END_TO_END)}


def emit(report: dict) -> None:
    units = units_of(bool(report["trace"]))
    print(f"# workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    for key in ("provenance", "traffic", "fingerprint", "timing"):
        print(f"# {key} {json.dumps(report[key], sort_keys=True)}")
    print(f"# error_rate {report['error_rate']!r} ({report['failed']}/{report['attempted']})")
    for m, v in report["metrics"].items():
        print(f"{m} {v!r} {units[m]}")
    RESULTS.mkdir(exist_ok=True)
    path = results_path(report["workload"], report["seed"], report["trace"])
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in report["metrics"].items()},
    }))


def results_path(name: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{name}-seed{seed}-trace{trace}.json"


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so RSS and set-up are its own.

    A workload passes only if its process exits 0; a report is read only
    from a process that completed (exit 0 or EXIT_INCORRECT), and only the
    one that process wrote.
    """
    ok = True
    for name in WORKLOAD_NAMES:
        path = results_path(name, args.seed, args.trace)
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + args.seconds * 3)
        ok &= proc.returncode == 0
        if proc.returncode not in (0, EXIT_INCORRECT) or not path.is_file():
            print(f"== {name}: FAILED, exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            continue
        report = json.loads(path.read_text())
        ok &= report["correct"]
        units = units_of(bool(args.trace))
        print(f"== {name}: correct={report['correct']} error_rate={report['error_rate']:.3g} "
              f"({report['failed']}/{report['attempted']}) "
              f"fingerprint={report['fingerprint']['sha256']}")
        for m, v in report["metrics"].items():
            print(f"   {m:40s} {v:>14.6g} {units[m]}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(report)
    return 0 if report["correct"] else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
