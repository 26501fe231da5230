"""Write the golden results the benchmark checks every output against.

    python3 perfbench/pin_golden.py

Run from the root of a checkout.  It makes every workload's calls once, in
input order, with the etaq in `src/`, and writes

- golden/verify.json: per claim id, the report fields of
  workloads.VERIFY_FIELDS (its `seconds` are not pinned);
- golden/scan.json: per "form|type", the findings JSON of `etaq scan`;
- golden/expand.json: per form, the SHA-256 of `etaq expand` output.

Re-pin only when a change to etaq is meant to change these results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def pin() -> None:
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    golden = workloads.GOLDEN
    golden.mkdir(exist_ok=True)

    from etaq import claims

    path = workdir / "claims-pin.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"claims": [c.to_json() for c in claims.builtin_claims()]}, fh)
    rc, out = workloads.call_cli(["verify", str(path), "--format", "json", "--jobs", "1"])
    if rc != 0:
        raise SystemExit(f"verify exited with {rc}; not pinning a failing run")
    reports = {
        r["claim"]: {f: r.get(f) for f in workloads.VERIFY_FIELDS} for r in json.loads(out)["reports"]
    }
    write(golden / "verify.json", reports)

    inputs = workloads.load_json(workloads.INPUTS)
    scans = {}
    for form in inputs["scan"]["forms"]:
        for kind in ("I", "II"):
            argv = ["scan", "--form", form, "--type", kind, "--ell-max", str(inputs["scan"]["ell_max"]), "--format", "json"]
            rc, out = workloads.call_cli(argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {rc}")
            scans[f"{form}|{kind}"] = json.loads(out)
    write(golden / "scan.json", scans)

    expands = {}
    for form in inputs["expand"]["forms"]:
        rc, out = workloads.call_cli(["expand", "--form", form, "--terms", str(inputs["expand"]["terms"])])
        if rc != 0:
            raise SystemExit(f"expand {form} exited with {rc}")
        expands[form] = workloads.digest(out)
    write(golden / "expand.json", expands)


def write(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    pin()
