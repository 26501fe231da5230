"""etaq benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Run it from the root of a checkout that holds `src/etaq`.  Workloads are
described in workloads.py: verify-builtin, verify-builtin-j2, scan-sweep
and expand-zz.  Each pass of a workload runs in its own fresh process, so
etaq's expansion cache starts cold every time.

With `--trace 0` the run first starts set-up-only children (the first one
only warms the file cache and is discarded), then full passes until about
`--seconds` have been spent on them, at least MIN_PASSES.  It reports the
median over the passes of:

- wall_s: wall time of the workload's CLI calls, untraced;
- cpu_s: user plus system CPU time of the child process;
- peak_rss_mb: the child's maximum resident memory;

and setup_s, the median over every child of the time from starting the
process to its first call into an etaq layer (interpreter start, importing
etaq and numpy, making the inputs).

With `--trace 1` it makes one untraced and one traced pass and reports the
per-layer metrics of tracing.PER_LAYER from the traced pass's spans.

Every output is checked against the golden results in `golden/`.  The
items whose output differs, over the items attempted, is wrong_frac; it is
printed, and reported as `failed` out of `attempted` in the JSON object on
the last line.  The exit code is 0 when every output is right, 1 when some
output is wrong, and 2 when the run could not be made (no `src/etaq` in the
checkout, a child that crashed or ran too long); then no JSON is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER, layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # set-up-only children per untraced run, after one warm-up
MIN_PASSES = 2
TIME_LIMIT = 165.0  # seconds; a run that would take longer is stopped

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, trace: int, deadline: float) -> Dict:
    """Run child.py once and wait for it; add set-up time, CPU time and peak RSS."""
    result_path = WORKDIR / f"child-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--trace", str(trace),
        "--result", str(result_path),
        "--spans", str(WORKDIR / f"spans-{workload}.jsonl"),
    ]
    env = dict(os.environ)
    env.pop("ETAQ_THREADS", None)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    pid = 0
    try:
        # wait4 rather than Popen.wait: it also gives the child's own rusage
        while not pid and time.perf_counter() < deadline:
            time.sleep(0.01)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # out of time, or interrupted: stop the child and reap it
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not pid:
        raise BenchError(f"{workload} {mode} pass did not finish within the time limit")
    finished = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited with code {proc.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    result["setup_s"] = result["ready"] - started
    result["elapsed"] = finished - started
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """Untraced run: set-up probes, then passes for about `seconds`."""
    spawn(workload, seed, "setup", 0, deadline)  # warm-up, discarded
    setups = [spawn(workload, seed, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes: List[Dict] = []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent + statistics.median(p["elapsed"] for p in passes) <= seconds:
        p = spawn(workload, seed, "run", 0, deadline)
        passes.append(p)
        spent += p["elapsed"]
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    lines = [
        f"  {'wall_s':<12} {metrics['wall_s']:.4f} s    median of {len(passes)} passes "
        f"(min {min(p['wall'] for p in passes):.4f}, max {max(p['wall'] for p in passes):.4f})",
        f"  {'cpu_s':<12} {metrics['cpu_s']:.4f} s    median of {len(passes)} passes",
        f"  {'setup_s':<12} {metrics['setup_s']:.4f} s    median of {len(setups)} set-ups "
        f"(min {min(setups):.4f}, max {max(setups):.4f})",
        f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.1f} MB   median of {len(passes)} passes",
    ]
    return metrics, passes, lines


def measure_traced(workload: str, seed: int, deadline: float):
    """Traced run: one untraced and one traced pass; per-layer metrics from the spans."""
    spawn(workload, seed, "setup", 0, deadline)  # warm-up, discarded
    plain = spawn(workload, seed, "run", 0, deadline)
    traced = spawn(workload, seed, "run", 1, deadline)
    spans = read_spans(str(WORKDIR / f"spans-{workload}.jsonl"))
    metrics = layer_metrics(spans, plain["wall"], traced["wall"])
    if plain["digest"] != traced["digest"]:
        traced["wrong"] = max(traced["wrong"], 1)
        traced["notes"].append("traced and untraced outputs differ")
    width = max(len(name) for name in PER_LAYER)
    lines = [f"  {len(spans)} spans; untraced {plain['wall']:.4f} s, traced {traced['wall']:.4f} s"]
    lines += [f"  {name:<{width}} {metrics[name]:.6g} {PER_LAYER[name][0]}" for name in PER_LAYER]
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return metrics, units, [plain, traced], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etaq" / "__init__.py").is_file():
        print(f"error: no etaq sources at {ROOT / 'src' / 'etaq'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    # a SIGTERM unwinds like Ctrl-C, so the running child is stopped and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    deadline = time.perf_counter() + TIME_LIMIT
    try:
        if args.trace:
            metrics, units, passes, lines = measure_traced(args.workload, args.seed, deadline)
        else:
            metrics, passes, lines = measure(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["wrong"] for p in passes)
    print(f"etaq benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"  {'wrong_frac':<12} {failed / attempted:.4g}        {failed} of {attempted} items wrong")
    for note in sorted({n for p in passes for n in p["notes"]}):
        print(f"  wrong: {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
