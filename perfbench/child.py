"""One benchmark run's measurements, in a fresh interpreter started by run.py.

Usage: ``python3 perfbench/child.py CONFIG_JSON`` with the keys ``circuit``,
``arch``, ``emitted``, ``src``, ``seconds`` and ``trace``. The job is the
workload's command sequence, run in-process through ``na_evalkit.cli.main``
exactly as a shell user would type it: ``validate``, ``normalize --emit``,
then ``evaluate --format json`` for each model on the emitted circuit. Jobs
repeat until ``seconds`` have passed. After each job, set-up is timed in
fresh interpreters. With ``trace`` set, each untraced job is followed by a
traced one instead, and the per-layer figures come from the latter.
The last line of stdout is one JSON object holding every command's exit
code, output and wall time, the set-up times, the process's peak RSS, and
any traces.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans

MIN_JOBS = 3
# set-up probes after each untraced job, so that they sample the whole run
PROBES_PER_JOB = 2
PROBE = (
    "import sys, na_evalkit, na_evalkit.__main__; "
    "na_evalkit.parse_architecture(open(sys.argv[1], encoding='utf-8').read()); "
    "print('ready', flush=True)"
)


def commands(cfg: dict) -> list[tuple[str, list[str]]]:
    circuit, arch, emitted = cfg["circuit"], cfg["arch"], cfg["emitted"]
    return [
        ("validate", ["validate", circuit, arch]),
        ("normalize", ["normalize", circuit, arch, "--emit", emitted, "--format", "json"]),
    ] + [
        (f"evaluate.{m}", ["evaluate", emitted, arch, "--model", m, "--format", "json"])
        for m in spans.MODELS
    ]


def invoke(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    # start each command from a collected heap, as a fresh CLI process does,
    # so that no command pays for collecting the garbage of the one before
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash fails this command, not the whole run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "error": error}


def time_setup(arch: str) -> float:
    """Seconds from spawning an interpreter until it has parsed the hardware."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, arch],
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_job(main, cmds, emitted: Path) -> dict:
    ops = {label: invoke(main, argv) for label, argv in cmds}
    with contextlib.suppress(OSError):
        ops["normalize"]["emitted_sha256"] = hashlib.sha256(emitted.read_bytes()).hexdigest()
    return ops


def main() -> int:
    cfg = json.loads(sys.argv[1])
    from na_evalkit import cli

    src = Path(cfg["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"child: imported {cli.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2
    cmds = commands(cfg)
    emitted = Path(cfg["emitted"])
    jobs, setup, layers, overhead, traces = [], [], [], [], []

    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < cfg["seconds"]:
        t0 = time.perf_counter()
        jobs.append(run_job(cli.main, cmds, emitted))
        plain = time.perf_counter() - t0
        if not cfg["trace"]:
            setup += [time_setup(cfg["arch"]) for _ in range(PROBES_PER_JOB)]
            continue
        recorder = spans.Recorder()
        with recorder.patched():
            t0 = time.perf_counter()
            jobs.append(run_job(recorder.wrap(spans.ROOT, cli.main), cmds, emitted))
            traced = time.perf_counter() - t0
        layers.append(recorder.layer_metrics())
        overhead.append(traced - plain)
        traces.append(recorder.dump())

    result = {
        "jobs": jobs,
        "validate_emitted": invoke(cli.main, ["validate", cfg["emitted"], cfg["arch"]]),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": setup,
        "layers": layers,
        "overhead_s": overhead,
        "spans": traces,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
