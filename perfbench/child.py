"""One pass of a workload in a fresh process; run.py starts it.

    python perfbench/child.py --root <checkout> --workload <name> --seed <n>
        --mode setup|run --trace 0|1 --result <file> --spans <file>

The child imports etaq from `<checkout>/src`, makes the workload's inputs
from the seed and notes the time ("ready") just before its first call into
etaq's layers.  In mode "setup" it stops there.  In mode "run" it makes the
workload's CLI calls, times them, checks every output against the golden
results and writes what it found to the result file as JSON.  With
`--trace 1` the tracer is installed before the inputs are made and removed
after the last call, and the spans are written to the spans file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of the set-up users pay for)

    import etaq
    import etaq.cli  # noqa: F401

    if src not in Path(etaq.__file__).resolve().parents:
        print(f"etaq was imported from {etaq.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = Path(args.result).parent
    calls = workloads.prepare(args.workload, args.seed, workdir)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.mode == "run":
        outputs = []
        for argv in calls:
            if tracer is None:
                outputs.append(workloads.call_cli(argv))
            else:
                with tracer.item(workloads.item_name(argv)):
                    outputs.append(workloads.call_cli(argv))
        wall = time.perf_counter() - ready
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans)
        golden = workloads.golden_for(args.workload)
        attempted, wrong, notes = workloads.check(args.workload, calls, outputs, golden)
        result.update(
            wall=wall,
            attempted=attempted,
            wrong=wrong,
            notes=notes[:20],
            digest=workloads.normalized(args.workload, calls, outputs),
        )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
