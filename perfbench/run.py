"""cosymkit benchmark: time to a verified ``cosym`` report, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload report-varying --seed 1 --seconds 35 --trace 0

The workload's scenario files and argv lists are generated from ``--seed``.
Every operation runs ``cosymkit.cli.main(argv)`` in this process, closed loop
with one client, and its JSON output is checked against closed forms.  Passes
over the operations repeat while another pass fits in ``--seconds`` (at least
one pass runs).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one untraced pass is followed by one
traced pass and the line carries the per-layer metrics.  Times are in
reference seconds (see ``speed.py``).  The line before it
records the environment.  The exit code is 0 whenever the result line is
printed (failed operations, and with ``--trace 1`` trace targets that bind
nowhere or layers that do not fire as the workload predicts, make it read
``"correct": false``) and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported anywhere in this process
_THREAD_ENV = {
    "COSYM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(_THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Fresh interpreters started per run to measure set-up time.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

# A fresh `cosym` process: import the command line (and with it the whole
# package), then schema-validate and build every scenario file given.  The
# speed probe starts once numpy is imported and samples every 50 ms.
_SETUP_CODE = (
    "import sys, speed\n"
    "with speed.SpeedProbe(0.05) as probe:\n"
    "    import cosymkit.cli, cosymkit.scenarios as s\n"
    "    for path in sys.argv[1:]:\n"
    "        s.load_scenario_file(path)\n"
    "print(*probe.since(0))\n"
)


def _load_program():
    """Import cosymkit from this checkout's sources, or None if absent."""
    if not (SRC / "cosymkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cosymkit
    import cosymkit.cli
    import cosymkit.scenarios

    if Path(cosymkit.__file__).resolve().parent != SRC / "cosymkit":
        return None
    return cosymkit


def _environment(cosymkit) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cosymkit": cosymkit.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": dict(_THREAD_ENV),
    }


def measure_setup(files) -> list:
    """(wall, reference) seconds of fresh interpreters that import cosymkit
    and load ``files``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, *files],
            env=env,
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.PIPE,
            text=True,
        )
        wall = time.perf_counter() - t0
        probe_sum, probe_n = child.stdout.split()
        mean = float(probe_sum) / int(probe_n) if int(probe_n) else speed.REFERENCE_S
        times.append((wall, wall * speed.REFERENCE_S / mean))
    return times


def run_pass(ops, cli_main, check_output, probe=None, tracer=None) -> list:
    """Run every operation once, in order; one record per operation."""
    records = []
    for op in ops:
        out = io.StringIO()
        span = tracer.op(op.scenario) if tracer else contextlib.nullcontext()
        mark = probe.mark() if probe else 0
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out):
                rc = cli_main(list(op.argv))
            error = None
        except Exception as err:  # an operation that raises counts as failed
            rc, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        if error:
            problems, digits = [f"raised {error}"], 0.0
        else:
            problems, digits = check_output(op, rc, text)
        records.append(
            {
                "seconds": seconds,
                "probe": probe.since(mark) if probe else (0.0, 0),
                "digits": digits,
                "problems": problems,
                "digest": hashlib.sha256(text.encode()).hexdigest(),
            }
        )
    return records


def program_key(environment: dict) -> str:
    """Hash of what an operation's output depends on: the cosymkit sources,
    the workload generator and the environment (numeric library versions,
    CPU).  Output digests are kept per key, so a change to the program
    starts a new record instead of failing against an old one."""
    digest = hashlib.sha256(json.dumps(environment, sort_keys=True).encode())
    for path in sorted((SRC / "cosymkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    digest.update((HERE / "workloads.py").read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(passes, digest_file: Path) -> None:
    """Flag operations whose output differs between passes of this run or
    from an earlier run of the same program, workload and seed (recorded in
    ``digest_file``)."""
    reference = None
    if digest_file.is_file():
        try:
            reference = json.loads(digest_file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            reference = None
    if not isinstance(reference, list) or len(reference) != len(passes[0]):
        reference = [rec["digest"] for rec in passes[0]]
        tmp = digest_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference), encoding="utf-8")
        os.replace(tmp, digest_file)
    for records in passes:
        for want, rec in zip(reference, records):
            if rec["digest"] != want:
                rec["problems"].append("output differs from another run of the same seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cosymkit = _load_program()
    if cosymkit is None:
        print(f"cosymkit sources not found under {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, work, cosymkit.scenarios.builtin_dict
    )
    cli_main = cosymkit.cli.main
    check = workloads.check_output

    setup = [] if args.trace else measure_setup(workload.files)

    passes, walls, ref_walls = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with speed.SpeedProbe() as probe:
            records = run_pass(workload.ops, cli_main, check, probe)
        walls.append(time.perf_counter() - t0)
        speed.to_reference(records)
        ref_walls.append(sum(rec["ref_seconds"] for rec in records))
        passes.append(records)
        if args.trace or time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    if args.trace:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with speed.SpeedProbe() as probe, tracer.installed():
            records = run_pass(workload.ops, cli_main, check, probe, tracer)
        traced_wall = time.perf_counter() - t0
        speed.to_reference(records)
        overhead = sum(rec["ref_seconds"] for rec in records) - ref_walls[0]
        passes.append(records)
    environment = _environment(cosymkit)
    check_determinism(passes, work / f"digests-{program_key(environment)}.json")

    records = [rec for records in passes for rec in records]
    failed = [rec for rec in records if rec["problems"]]
    for rec in failed[:10]:
        print(f"failed op: {rec['problems']}", file=sys.stderr)
    trace_problems = tracer.problems(workload.silent_layers) if args.trace else []
    for problem in trace_problems:
        print(f"trace: {problem}", file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics(traced_wall, overhead, workloads.BUILTINS)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
            "wall_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "oracle_digits": {
                "value": min(rec["digits"] for rec in records),
                "unit": "digits",
            },
            "pass_ratio": {
                "value": (len(records) - len(failed)) / len(records),
                "unit": "ratio",
            },
        }
    print(
        json.dumps(
            {
                "environment": environment,
                "workload": workload.name,
                "why": workload.why,
                "seed": args.seed,
                "passes": len(walls),
                "traced_passes": 1 if args.trace else 0,
                "ops_per_pass": len(workload.ops),
                "op_samples": len(records),
                "pass_walls_s": walls,
                "pass_reference_s": ref_walls,
                "op_p50_wall_s": statistics.median(rec["seconds"] for rec in records),
                "op_p50_reference_s": statistics.median(rec["ref_seconds"] for rec in records),
                "setup_walls_s": [wall for wall, _ in setup],
                "setup_reference_s": [ref for _, ref in setup],
                **({"idle_targets": tracer.idle()} if args.trace else {}),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failed and not trace_problems,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
