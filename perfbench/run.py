"""Benchmark of the na-evalkit command line on seeded synthetic workloads.

Run from the repository root (stdlib only, one process at a time):

    python3 perfbench/run.py --workload dense-10k --seed 1 --seconds 20 --trace 0

Workloads (sizes in workload.WORKLOADS):

* ``dense-10k``: 50x50 grid, 1000 atoms, 10k random legal stages of one-qubit,
  ``cz`` and ``move`` ops. Every stage copies a 1000-entry occupancy map.
* ``table1-10k``: the same op mix and stage count on the paper's Table-1
  hardware (30 atoms); parse and model costs stay, the per-atom copy vanishes.
* ``collapse-2k``: 20x20 grid, 100 atoms, 2000 stages with 250 planted
  reversals and two-leg paths; ``normalize`` re-simulates the program for
  every rewrite. On the other two workloads it finds nothing to rewrite.

A run writes its inputs under ``.perfbench_work/``, times set-up in fresh
interpreters, then starts ``child.py`` in another fresh interpreter, which
repeats the workload's job (``validate``, ``normalize --emit``, and
``evaluate --format json`` for each model on the emitted circuit) for
``--seconds``. It is a closed loop with one caller. Every command's output
is checked by oracle.py; a nonzero exit, an exception or a wrong figure is
a failed operation, and the error rate is ``failed / attempted`` in the
result line (it is not a metric, since it is 0 on a correct program).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: interpreter start until ``na_evalkit`` (with its CLI) is
  imported and the workload's hardware document is parsed; the median of
  two fresh interpreters timed after each job;
* ``validate_s``, ``normalize_s``: one command, the lower quartile of the
  run's samples;
* ``evaluate_s``: the four ``evaluate`` commands, the sum of each model's
  lower quartile;
* ``peak_rss_mb``: peak resident memory of the measuring interpreter.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of spans.py (seconds or counts per job, median over traced jobs)
and ``trace.overhead_s``, the traced job's wall time minus the untraced one.

Each run writes ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``
with the result line, every sample, a SHA-256 digest of each command's
output and the environment; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workload
from spans import MODELS

HERE = Path(__file__).resolve().parent
# the whole run must end within 180 s; the child gets what is left of this
RUN_DEADLINE_S = 170.0


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(data: dict, gen: workload.Generated, emitted_text: str | None) -> tuple[int, list[str]]:
    """Operations attempted, and one line per failed operation."""
    if emitted_text is None:
        emitted, problem, digest = None, "no emitted circuit", None
    else:
        emitted, problem = oracle.check_emitted(emitted_text, gen)
        digest = sha256(emitted_text)
    attempted, failures = 0, []
    for job in data["jobs"]:
        for label, op in job.items():
            attempted += 1
            if label == "validate":
                reason = oracle.check_validate(op, gen.tally)
            elif label == "normalize":
                reason = problem or oracle.check_normalize(op, gen, emitted)
                if not reason and op.get("emitted_sha256") != digest:
                    reason = "emitted circuit differs from the last job's"
            else:
                reason = problem or oracle.check_evaluate(op, label.split(".", 1)[1], emitted)
            if reason:
                failures.append(f"{label}: {reason}")
    attempted += 1
    reason = problem or oracle.check_validate(data["validate_emitted"], emitted)
    if reason:
        failures.append(f"validate emitted: {reason}")
    return attempted, failures


def measure(args, root: Path) -> tuple[dict, dict]:
    """Run the workload; returns the result line and the result file's content."""
    started = time.perf_counter()
    gen = workload.generate(args.workload, args.seed, args.scale)
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    circuit, arch = workload.write_inputs(gen, work)
    emitted = work / "emitted.rsqasm"
    emitted.unlink(missing_ok=True)

    def rel(path: Path) -> str:
        # the reports name their inputs; relative paths keep them equal across checkouts
        return path.relative_to(root).as_posix()

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    cfg = {"circuit": rel(circuit), "arch": rel(arch), "emitted": rel(emitted),
           "src": str(root / "src"), "seconds": args.seconds, "trace": bool(args.trace)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)], env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - started)),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"measuring interpreter failed with exit code {proc.returncode}")
    data = json.loads(proc.stdout.splitlines()[-1])
    emitted_text = emitted.read_text(encoding="utf-8") if emitted.is_file() else None
    attempted, failures = check(data, gen, emitted_text)

    jobs = data["jobs"]
    if args.trace:
        samples = {name: [layer[name] for layer in data["layers"]] for name in data["layers"][0]}
        samples["trace.overhead_s"] = data["overhead_s"]
        metrics = {
            name: {"value": statistics.median(v), "unit": "s" if name.endswith("_s") else "count"}
            for name, v in samples.items()
        }
    else:
        samples = {"setup_s": data["setup_s"]}
        samples.update({f"{label}_s": [j[label]["seconds"] for j in jobs] for label in jobs[0]})
        # Noise on a shared machine only ever slows a command down, in bursts
        # of a second or two. The lower quartile of a command's samples is its
        # cost outside such bursts, so it follows the program, not the neighbours.
        low = {name: statistics.quantiles(v, n=4)[0] for name, v in samples.items()}
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "validate_s": low["validate_s"],
            "normalize_s": low["normalize_s"],
            "evaluate_s": sum(low[f"evaluate.{m}_s"] for m in MODELS),
            "peak_rss_mb": data["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": v, "unit": "MB" if name == "peak_rss_mb" else "s"}
                   for name, v in values.items()}

    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "result": line,
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "jobs": len(jobs),
        "planted_rewrites": gen.planted,
        "samples": samples,
        "digests": {
            **{label: sha256(op["stdout"]) for label, op in jobs[0].items()},
            "emitted": None if emitted_text is None else sha256(emitted_text),
        },
        "environment": environment(root),
    }
    if args.trace:
        record["spans"] = data["spans"]
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (0 < scale <= 1), for smoke tests")
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")

    root = Path.cwd()
    if not (root / "src" / "na_evalkit" / "cli.py").is_file():
        print("perfbench: run from a checkout of na-evalkit (no src/na_evalkit here)",
              file=sys.stderr)
        return 2
    try:
        line, record = measure(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
