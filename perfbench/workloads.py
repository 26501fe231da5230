"""The benchmark's workloads: inputs made from a seed, the calls, the checks.

Every workload drives etaq only through `etaq.cli.main([...])`, one call
after another in one process (a closed loop with one caller), and checks
each output against the golden results pinned in `golden/`.

- verify-builtin: all built-in claims, written to a claim file in an order
  drawn from the seed, then `etaq verify <file> --format json --jobs 1`.
  Claim order decides which expansions the cache can reuse.
- verify-builtin-j2: the same claim file with `--jobs 2`, the thread pool.
- scan-sweep: `etaq scan` of types I and II for the forms in inputs.json,
  in an order drawn from the seed; mod many distinct primes ell with t = 1.
- expand-zz: `etaq expand --form <id> --terms P` over ZZ for every catalog
  form in inputs.json; no cache and no residue ring.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs.json"
GOLDEN = HERE / "golden"

WORKLOADS = ("verify-builtin", "verify-builtin-j2", "scan-sweep", "expand-zz")

# report fields that must match the golden result; "seconds" is ignored
VERIFY_FIELDS = ("verdict", "rigor", "status", "bound", "weight", "level", "first_failure", "primes_checked")


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """Run `etaq.cli.main(argv)` and return its exit code and standard output."""
    from etaq import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def strip_seconds(text: str) -> str:
    """A verify or scan JSON output with every report's `seconds` removed."""
    data = json.loads(text)
    for report in data.get("reports", ()):
        report.pop("seconds", None)
    return json.dumps(data, sort_keys=True)


# -- inputs -------------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: Path) -> List[List[str]]:
    """Make the workload's inputs from the seed; return the CLI calls to make.

    For the verify workloads this writes the claim file, so it is part of
    the set-up the benchmark times.
    """
    rng = random.Random(seed)
    if workload in ("verify-builtin", "verify-builtin-j2"):
        from etaq import claims

        items = [c.to_json() for c in claims.builtin_claims()]
        rng.shuffle(items)
        path = workdir / f"claims-{workload}-{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"comment": f"built-in claims, order from seed {seed}", "claims": items}, fh)
        jobs = "2" if workload == "verify-builtin-j2" else "1"
        return [["verify", str(path), "--format", "json", "--jobs", jobs]]
    inputs = load_json(INPUTS)
    if workload == "scan-sweep":
        scan = inputs["scan"]
        items = [(form, kind) for form in scan["forms"] for kind in ("I", "II")]
        rng.shuffle(items)
        return [
            ["scan", "--form", form, "--type", kind, "--ell-max", str(scan["ell_max"]), "--format", "json"]
            for form, kind in items
        ]
    if workload == "expand-zz":
        exp = inputs["expand"]
        forms = list(exp["forms"])
        rng.shuffle(forms)
        return [["expand", "--form", form, "--terms", str(exp["terms"])] for form in forms]
    raise ValueError(f"unknown workload {workload!r}")


def item_name(argv: List[str]) -> str:
    """The item a CLI call works on, used to tag its trace spans."""
    if argv[0] == "verify":
        return "verify"
    if argv[0] == "scan":
        return f"scan:{argv[2]}:{argv[4]}"
    return f"expand:{argv[2]}"


# -- golden checks ------------------------------------------------------------


def check_verify(rc: int, out: str, golden: Dict[str, Dict]) -> Tuple[int, int, List[str]]:
    """Compare a verify run with the golden reports: (attempted, wrong, notes)."""
    notes: List[str] = []
    try:
        reports = {r["claim"]: r for r in json.loads(out)["reports"]}
    except (ValueError, KeyError, TypeError):
        reports = {}
        notes.append("verify output is not the expected JSON")
    wrong = 0
    for claim_id, want in golden.items():
        got = reports.get(claim_id)
        if got is None:
            wrong += 1
            notes.append(f"{claim_id}: missing")
            continue
        diffs = [f for f in VERIFY_FIELDS if got.get(f) != want.get(f)]
        if want.get("status") == "refuted-as-expected" and got.get("status") != "refuted-as-expected":
            diffs.append("planted control not refuted")
        if diffs:
            wrong += 1
            notes.append(f"{claim_id}: {', '.join(diffs)}")
    extra = sorted(set(reports) - set(golden))
    wrong += len(extra)
    notes.extend(f"{claim_id}: not in golden" for claim_id in extra)
    attempted = len(golden) + len(extra)
    if rc != 0:
        notes.append(f"exit code {rc}")
        wrong = max(wrong, 1)
    return attempted, wrong, notes


def check_item(argv: List[str], rc: int, out: str, golden: Dict) -> List[str]:
    """Problems with one scan or expand call, compared with the golden result."""
    notes: List[str] = []
    if rc != 0:
        notes.append(f"exit code {rc}")
    if argv[0] == "scan":
        key = f"{argv[2]}|{argv[4]}"
        try:
            got = json.loads(out)
        except ValueError:
            got = None
        if got != golden.get(key):
            notes.append(f"scan {key}: findings differ")
    else:
        key = argv[2]
        if digest(out) != golden.get(key):
            notes.append(f"expand {key}: coefficient digest differs")
    return notes


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_for(workload: str) -> Dict:
    if workload in ("verify-builtin", "verify-builtin-j2"):
        return load_json(GOLDEN / "verify.json")
    if workload == "scan-sweep":
        return load_json(GOLDEN / "scan.json")
    return load_json(GOLDEN / "expand.json")


def check(workload: str, calls: List[List[str]], results: List[Tuple[int, str]], golden: Dict):
    """(attempted, wrong, notes) for one pass over a workload's calls."""
    if workload in ("verify-builtin", "verify-builtin-j2"):
        (rc, out), = results
        return check_verify(rc, out, golden)
    notes: List[str] = []
    wrong = 0
    for argv, (rc, out) in zip(calls, results):
        problems = check_item(argv, rc, out, golden)
        if problems:
            wrong += 1
            notes.extend(problems)
    return len(calls), wrong, notes


def normalized(workload: str, calls: List[List[str]], results: List[Tuple[int, str]]) -> str:
    """Digest of a pass's outputs, keyed by item and with `seconds` dropped."""
    parts = []
    for argv, (rc, out) in sorted(zip(calls, results), key=lambda p: p[0]):
        text = strip_seconds(out) if argv[0] in ("verify", "scan") else out
        parts.append(f"{item_name(argv)}\t{rc}\t{text}")
    return digest("\n".join(parts))
