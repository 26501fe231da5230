"""The command-line interface: output formats, exit codes, claim files."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from etaq.claims import builtin_claims
from etaq.cli import format_polynomial, main
from etaq.etaquot import lookup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_delta_first_terms(capsys):
    code, out, _ = run(capsys, "expand", "--eta", "1:24", "--terms", "3")
    assert code == 0
    assert out.strip() == "q - 24q^2 + 252q^3"


def test_expand_level_11_mod_5(capsys):
    code, out, _ = run(capsys, "expand", "--eta", "1:2,11:2", "--mod", "5", "--terms", "3")
    assert code == 0
    assert out.strip() == "q + 3q^2 + 4q^3"


def test_expand_of_a_leftover_quotient_keeps_its_pinned_output(capsys):
    # eta(5z)^5 / eta(z) divides by E(1) with Euler's recurrence; its output
    # at 10^4 terms is pinned by digest, the same over ZZ and mod 2^70 (every
    # coefficient is positive and below 2^70)
    pinned = {
        (): "a84a547350c0c623076f0353e1ed1dc18215f345cef4a25678da947592a7071f",
        ("--mod", "5^3"): "866f871ee78f2370f14fcf1529c2311ec25c5043cbce32578fb0bb9712561bd6",
        ("--mod", "2^70"): "a84a547350c0c623076f0353e1ed1dc18215f345cef4a25678da947592a7071f",
    }
    for ring, digest in pinned.items():
        code, out, _ = run(capsys, "expand", "--eta", "1:-1,5:5", "--terms", "10000", *ring)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, ring


def test_expand_of_the_empty_quotient_is_one(capsys):
    # exponents that cancel leave no eta factor: 1 over ZZ, mod 5 and past
    # the int64 guard (2^70); a quotient with no factor at all is refused
    for eta in ("1:0", "1:24,1:-24"):
        for ring in ((), ("--mod", "5"), ("--mod", "2^70")):
            code, out, err = run(capsys, "expand", "--eta", eta, "--terms", "4", *ring)
            assert (code, out, err) == (0, "1\n", ""), (eta, ring)
    code, out, err = run(capsys, "expand", "--eta", ",", "--terms", "4")
    assert code == 2 and out == "" and "empty eta quotient" in err


def test_expand_catalog_form_with_prime_power_modulus(capsys):
    code, out, _ = run(capsys, "expand", "--form", "eta2^12", "--mod", "3^2", "--terms", "7")
    assert code == 0
    assert out.strip() == "q + 6q^3 + 2q^7"


def test_expand_rejects_bad_exponent_sum(capsys):
    code, out, err = run(capsys, "expand", "--eta", "1:23", "--terms", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_expand_rejects_unknown_form(capsys):
    code, _, err = run(capsys, "expand", "--form", "eta5^40", "--terms", "5")
    assert code == 2
    assert "error:" in err


def test_expand_rejects_malformed_modulus(capsys):
    code, _, err = run(capsys, "expand", "--eta", "1:24", "--mod", "five")
    assert code == 2
    assert "bad modulus" in err


def test_format_polynomial_edge_cases():
    delta = lookup("delta").expand(8)
    assert format_polynomial(delta).startswith("q - 24q^2 + 252q^3 - 1472q^4")
    assert format_polynomial(delta.truncate(0)) == "0"


def test_verify_only_filters_compose(capsys):
    code, out, _ = run(capsys, "verify", "--only", "two-exponent", "--only", "delta")
    assert code == 0
    lines = [line for line in out.splitlines() if "two-exponent:delta" in line]
    assert len(lines) == 4
    assert out.strip().endswith("4/4 claims as expected")


def test_verify_text_reports_planted_refutation(capsys):
    code, out, _ = run(capsys, "verify", "--only", "square-class:delta")
    assert code == 0
    ok_line = next(line for line in out.splitlines() if ":l23" in line)
    refuted_line = next(line for line in out.splitlines() if ":l29" in line)
    assert ok_line.startswith("PASS")
    assert "sturm-proved" in ok_line
    assert refuted_line.startswith("PASS(refuted as planted)")
    assert "witness=" in refuted_line
    assert "2/2 claims as expected" in out


def test_verify_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "verify", "--only", "raw-identity", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()
    (report,) = payload["reports"]
    assert report["claim"] == "raw-identity:eta1^8 eta2^8:l3^3"
    assert report["verdict"] == "proved"
    assert report["bound"] == 1918


def test_verify_json_deterministic_across_jobs(capsys):
    def stripped(jobs):
        code, out, _ = run(
            capsys, "verify", "--only", "twist-power:eta2^12", "--format", "json", "-j", jobs
        )
        assert code == 0
        payload = json.loads(out)
        for report in payload["reports"]:
            del report["seconds"]
        return payload

    assert stripped("1") == stripped("4")


@pytest.mark.parametrize("flag", ["0", "-3", "x"])
def test_verify_rejects_bad_thread_counts(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "two-exponent:delta:l691", "--jobs", flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "thread count must be an integer >= 1" in err
    assert repr(flag) in err


@pytest.mark.parametrize("margin", ["5", "-1", "-50", "x"])
def test_verify_rejects_bad_margin(capsys, margin):
    # no flag moves an agreement bound: --margin is a usage error, whatever its value
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "two-exponent:delta:l691", "--margin", margin])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("ell_max", ["1", "0", "-7"])
def test_scan_rejects_ell_max_below_two(capsys, ell_max):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--form", "delta", "--type", "I", "--ell-max", ell_max])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "largest ell must be an integer >= 2" in captured.err
    assert "no exceptional primes" not in captured.out


def test_verify_no_claims_selected(capsys):
    code, out, err = run(capsys, "verify", "--only", "no-such-kind")
    assert code == 2
    assert "no claims selected" in err


def test_verify_claim_file_with_comment(tmp_path, capsys):
    path = tmp_path / "claims.json"
    path.write_text(
        json.dumps(
            {
                "comment": "a passing row and a planted near-miss",
                "claims": [
                    {
                        "claim_id": "two-exponent:delta:l691",
                        "kind": "two-exponent",
                        "form": "delta",
                        "ell": 691,
                        "m": 0,
                        "m_prime": 11,
                        "psi": "1_1",
                    },
                    {
                        "claim_id": "square-class:delta:l29",
                        "kind": "square-class",
                        "form": "delta",
                        "ell": 29,
                        "expect": "fail",
                    },
                ],
            }
        )
    )
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "2/2 claims as expected" in out


def test_verify_claim_file_failure_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "claims": [
                    {
                        "claim_id": "two-exponent:delta:l691:corrupt",
                        "kind": "two-exponent",
                        "form": "delta",
                        "ell": 691,
                        "m": 2,
                        "m_prime": 9,
                        "psi": "1_1",
                    }
                ]
            }
        )
    )
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "witness=2" in out
    assert "0/1 claims as expected" in out


def test_verify_claim_file_malformed_inputs(tmp_path, capsys):
    top_level_list = tmp_path / "list.json"
    top_level_list.write_text("[]")
    code, _, err = run(capsys, "verify", str(top_level_list))
    assert code == 2
    assert "claims" in err

    extra_key = tmp_path / "extra.json"
    extra_key.write_text(json.dumps({"claims": [], "notes": "x"}))
    code, _, err = run(capsys, "verify", str(extra_key))
    assert code == 2
    assert "unknown claim-file keys" in err

    bad_field = tmp_path / "field.json"
    bad_field.write_text(
        json.dumps(
            {"claims": [{"claim_id": "x", "kind": "square-class", "form": "delta", "ell": 23, "sturm": 1}]}
        )
    )
    code, _, err = run(capsys, "verify", str(bad_field))
    assert code == 2
    assert "unknown claim fields" in err

    missing = tmp_path / "absent.json"
    code, _, err = run(capsys, "verify", str(missing))
    assert code == 2


RAW = {"kind": "raw-identity", "form": "delta", "ell": 5, "rhs": {"form": "delta"}}


@pytest.mark.parametrize(
    "claim",
    [
        {"kind": "prime-power", "form": "delta", "ell": 691, "m": 0, "m_prime": 11,
         "residues": [1]},
        {"kind": "unit-factor", "form": "eta2^12", "ell": 2, "t": 14, "m_prime": 5,
         "units": [[1, 1, 14]]},
        {"kind": "prime-power", "form": "delta", "ell": 691, "m": 0, "m_prime": 11,
         "residues": [1], "residue_modulus": 0},
        {"kind": "unit-factor", "form": "eta2^12", "ell": 2, "t": 14, "residue_modulus": 8,
         "units": [[1, 1, 14]]},
        {"kind": "square-class", "form": "delta"},
        {"kind": "square-class", "form": "delta", "ell": "23"},
        {"kind": "square-class", "form": "delta", "ell": 23, "t": 2},
        {"kind": "two-exponent", "form": "delta", "ell": 691, "t": 2, "m": 0, "m_prime": 11,
         "psi": "1_1"},
        {"kind": "two-exponent", "form": "delta", "ell": 691, "m": 0, "m_prime": 11,
         "psi": "kron(-1)"},
        dict(RAW, lhs={"form": "delta", "thetta": 1}),
        dict(RAW, lhs={"form": "delta", "G": 12}),
        dict(RAW, lhs={"theta": 1}),
        dict(RAW, lhs="delta"),
        dict(RAW, lhs={"form": 5}),
        dict(RAW, lhs={"form": "delta", "theta": "1"}),
        dict(RAW, lhs={"G": "12"}),
        dict(RAW, lhs={"form": "delta", "pad": [4]}),
        dict(RAW, lhs={"form": "delta", "twist": "kron(-1)"}),
        dict(RAW, lhs={"form": "delta", "twist": 5}),
        dict(RAW, lhs={"form": "delta"}, weight="12"),
        {"kind": "prime-power", "form": "eta2^12", "ell": 3, "t": 2, "m": 1, "m_prime": 4,
         "residues": [2, 5], "residue_modulus": 9, "weight": 1, "level": 7},
        {"kind": "unit-factor", "form": "eta2^12", "ell": 2, "t": 14, "m_prime": 5,
         "residue_modulus": 8, "units": [[7, 193, 14]], "level": 8},
        {"kind": "unit-factor", "form": "eta2^12", "ell": 2, "t": 14, "m": 3, "m_prime": 5,
         "residue_modulus": 8, "units": [[7, 193, 14]]},
        {"kind": "square-class", "form": "delta", "ell": 23, "psi": "1_1", "m": 0,
         "m_prime": 11, "residues": [1], "residue_modulus": 2},
        {"kind": "two-exponent", "form": "delta", "ell": 691, "m": 0, "m_prime": 11,
         "psi": "1_1", "residues": [1], "residue_modulus": 4},
        {"kind": "prime-power", "form": "eta2^12", "ell": 3, "t": 2, "m": 1, "m_prime": 4,
         "residues": [2, 14], "residue_modulus": 9},
        {"kind": "unit-factor", "form": "eta2^12", "ell": 2, "t": 14, "m_prime": 5,
         "residue_modulus": 8, "units": [[7, 193, 14], [13, 1, 11]]},
        dict(RAW, lhs={"G": 12}),
        {"kind": "two-exponent", "form": "delta", "ell": 691.0, "m": 0, "m_prime": 11,
         "psi": "1_1"},
        {"kind": "square-class", "form": "delta", "ell": 23.0},
        {"kind": "twist-power", "form": "eta2^12", "ell": 3, "t": 3.0},
        {"kind": "twist-power", "form": "eta2^12", "ell": 3, "t": True},
        {"kind": "prime-power", "form": "delta", "ell": 691, "m": 0.0, "m_prime": 11},
        {"kind": "prime-power", "form": "eta2^12", "ell": 3, "t": 2, "m": 1, "m_prime": 4,
         "residues": [2, 5], "residue_modulus": 9.0},
        {"kind": "prime-power", "form": "eta2^12", "ell": 3, "t": 2, "m": 1, "m_prime": 4,
         "residues": [2.0, 5], "residue_modulus": 9},
        {"kind": "unit-factor", "form": "eta2^12", "ell": 2, "t": 14, "m_prime": 5,
         "residue_modulus": 8, "units": [[7, 193.0, 14]]},
        dict(RAW, lhs={"form": "delta", "theta": True}, rhs={"form": "delta", "theta": 1}),
        dict(RAW, lhs={"form": "delta", "pad": [4, True]}),
        dict(RAW, lhs={"form": "delta", "pad": [0, 1]}),
        dict(RAW, ell=3, lhs={"form": "delta", "pad": [2, 1]}),
        [dict(RAW, claim_id=5, lhs={"form": "delta"}),
         dict(RAW, claim_id="y", lhs={"form": "delta"})],
        [dict(RAW, claim_id=5, lhs={"form": "delta"})],
        dict(RAW, lhs={"form": "delta"}, note=5),
        dict(RAW, lhs={"form": "delta"}, form=5),
    ],
    ids=[
        "residues-without-modulus",
        "units-without-modulus",
        "zero-modulus",
        "units-without-exponent",
        "missing-ell",
        "string-ell",
        "square-class-mod-ell-squared",
        "two-exponent-mod-ell-squared",
        "kron-minus-1-psi",
        "recipe-unknown-key",
        "recipe-two-bases",
        "recipe-no-base",
        "recipe-not-an-object",
        "recipe-form-not-a-string",
        "recipe-string-theta",
        "recipe-string-G",
        "recipe-pad-not-a-pair",
        "recipe-kron-minus-1-twist",
        "recipe-twist-not-a-string",
        "string-weight",
        "prime-power-with-declared-space",
        "unit-factor-with-declared-level",
        "unit-factor-with-m-3",
        "square-class-with-unread-fields",
        "two-exponent-with-residues",
        "residue-class-out-of-range",
        "unit-class-out-of-range",
        "recipe-G-constant-not-ell-integral",
        "float-ell-two-exponent",
        "float-ell-square-class",
        "float-t",
        "bool-t",
        "float-m",
        "float-residue-modulus",
        "float-residue",
        "float-unit",
        "recipe-bool-theta",
        "recipe-bool-pad",
        "recipe-pad-weight-0",
        "recipe-pad-weight-2",
        "int-claim-id-beside-a-string",
        "int-claim-id",
        "int-note",
        "int-form",
    ],
)
def test_verify_malformed_claim_is_a_usage_error(tmp_path, capsys, claim):
    # a list is the whole claim file, ids included
    claims = claim if isinstance(claim, list) else [dict(claim, claim_id="x")]
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": claims}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error:" in err
    assert "PASS" not in out


BIG_PRIME = 100000000000000000039


@pytest.mark.parametrize(
    "argv, claim, message",
    [
        (["expand", "--form", "delta", "--terms", "1000001"], None,
         "precision 1000001 exceeds the limit of 1000000 coefficients"),
        (["scan", "--form", "delta", "--type", "I", "--ell-max", "1000001"], None,
         "ell_max 1000001 exceeds the limit of 1000000 coefficients"),
        (["scan", "--form", "delta", "--type", "II", "--prime-bound", "1000001"], None,
         "prime bound 1000001 exceeds the limit of 1000000 coefficients"),
        (["verify", "--only", "prime-power", "--prime-bound", "1000001"], None,
         "prime bound 1000001 exceeds the limit of 1000000 coefficients"),
        (["verify"], {"kind": "square-class", "form": "delta", "ell": BIG_PRIME},
         "x: agreement bound 416666666666666667000000000000000000067 exceeds the limit"),
        (["verify"], {"kind": "square-class", "form": "delta", "ell": 1000000007},
         "x: agreement bound 41666667333333337 exceeds the limit"),
        (["verify"], {"kind": "two-exponent", "form": "delta", "ell": 691, "m": 0, "m_prime": 11,
                      "psi": f"kron({BIG_PRIME})"},
         f"discriminant {BIG_PRIME} is beyond the limit |d| <= 10^12"),
        (["verify"], dict(RAW, lhs={"form": "delta", "twist": f"kron({BIG_PRIME})"}),
         f"discriminant {BIG_PRIME} is beyond the limit |d| <= 10^12"),
        (["verify"], dict(RAW, ell=1000000007, lhs={"form": "delta", "twist": "1_1000000007"}),
         "level 1000000014000000049 is beyond the limit |N| <= 10^12"),
        (["verify"], dict(RAW, level=1000000000000000009, lhs={"form": "delta"}),
         "level 1000000000000000009 is beyond the limit |N| <= 10^12"),
        (["verify"], dict(RAW, ell=2, t=1000000, lhs={"form": "delta", "theta": 1},
                          rhs={"form": "delta", "theta": 1}),
         "level of 301030 digits is beyond the limit |N| <= 10^12"),
        (["verify"], dict(RAW, ell=2, t=1000000, level=3, lhs={"form": "delta", "theta": 1},
                          rhs={"form": "delta", "theta": 1}),
         "declared weight of 301030 digits, level 3 does not contain the derived weight of 301030 "
         "digits, level of 301030 digits"),
    ],
    ids=["expand-terms", "scan-ell-max", "scan-prime-bound", "verify-prime-bound",
         "square-class-huge-ell", "square-class-ell-1e9", "huge-psi", "huge-twist",
         "twist-level", "declared-level", "theta-level-2^999999", "declared-level-under-theta-2^999999"],
)
def test_outsized_input_is_a_usage_error_at_once(tmp_path, capsys, argv, claim, message):
    # a bound past 10^6 coefficients, or a discriminant or a comparison's
    # level past 10^12, exits 2 naming its limit before any sieve, expansion
    # or factoring starts; a level too long to print gives its digit count
    if claim is not None:
        path = tmp_path / "claims.json"
        path.write_text(json.dumps({"claims": [dict(claim, claim_id="x")]}))
        argv = argv + [str(path)]
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("reverse", [False, True])
def test_verify_reports_the_first_fault_in_claim_order(tmp_path, capsys, reverse):
    # one fault shows only when the claim runs (G_12's constant has no image
    # mod 5), the other already when its reads are planned (m + m' != k - 1
    # mod ell - 1); either way the run stops at whichever comes first
    at_run = dict(RAW, claim_id="at-run", lhs={"G": 12})
    at_plan = {"claim_id": "at-plan", "kind": "two-exponent", "form": "delta", "ell": 691,
               "m": 0, "m_prime": 10, "psi": "1_1"}
    claims = [at_plan, at_run] if reverse else [at_run, at_plan]
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": claims}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    if reverse:
        assert err == "error: at-plan: exponents violate m + m' = k - 1 mod ell - 1\n"
    else:
        assert err == "error: coefficient a(0) = 691/65520 is not 5-integral; cannot reduce mod 5^1\n"


def test_raw_identity_reads_the_constant_of_G_only_where_it_reduces(tmp_path, capsys):
    # G_12 has constant 691/65520: no image mod 5, 0 mod 691, where G_12 = delta
    path = tmp_path / "claims.json"
    for ell, code in ((5, 2), (691, 0)):
        path.write_text(json.dumps({"claims": [dict(RAW, claim_id="x", ell=ell, lhs={"G": 12})]}))
        got, out, err = run(capsys, "verify", str(path))
        assert got == code, (ell, err)
        if code:
            assert "a(0) = 691/65520 is not 5-integral; cannot reduce mod 5^1" in err
        else:
            assert "PASS" in out and "proved" in out


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, code",
    [
        ("control_declared_space_too_small.json", 2),
        ("control_kron3_twist.json", 2),
        ("control_pad_not_one.json", 2),
        ("control_weights_not_congruent.json", 2),
        ("control_conservative_theta.json", 0),
    ],
)
def test_planted_raw_identity_controls(capsys, name, code):
    got, out, err = run(capsys, "verify", str(DATA / name), "--format", "json")
    assert got == code
    if code == 2:
        assert err.startswith("error:") and out == ""
    else:
        # theta mod 5^2 is conservative: agreement is evidence, never a proof
        (report,) = json.loads(out)["reports"]
        assert (report["verdict"], report["rigor"]) == ("evidence", "numerical-evidence")


def test_raw_identity_without_weight_runs_at_the_derived_space(tmp_path, capsys):
    (claim,) = [c for c in builtin_claims() if c.kind == "raw-identity"]
    data = claim.to_json()
    del data["weight"], data["level"]
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": [data]}))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["verdict"] == "proved"
    assert (report["bound"], report["weight"], report["level"]) == (1918, 320, 36)


def test_scan_square_class_text_flags_masked_primes(capsys):
    code, out, _ = run(capsys, "scan", "--form", "delta", "--type", "II", "--ell-max", "40")
    assert code == 0
    lines = {int(line.split()[0].split("=")[1]): line for line in out.splitlines()}
    assert set(lines) == {3, 7, 23}
    assert "masked" in lines[3]
    assert "masked" in lines[7]
    assert "masked" not in lines[23]


def test_scan_square_class_small_level_9_form(capsys):
    code, out, _ = run(capsys, "scan", "--form", "eta3^8", "--type", "II", "--ell-max", "10")
    assert code == 0
    assert sorted(int(line.split()[0].split("=")[1]) for line in out.splitlines()) == [3, 5, 7]


def test_scan_finds_nothing_for_level_11(capsys):
    code, out, _ = run(capsys, "scan", "--form", "eta1^2 eta11^2", "--type", "II", "--ell-max", "40")
    assert code == 0
    assert out.strip() == "no exceptional primes found"


def test_scan_two_exponent_json(capsys):
    code, out, _ = run(
        capsys, "scan", "--form", "delta", "--type", "I", "--ell-max", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()
    rows = {f["ell"]: (f["m"], f["m_prime"], f["psi"]) for f in payload["findings"]}
    assert rows == {2: (0, 1, "1_1"), 3: (0, 1, "1_1"), 5: (1, 2, "1_1"), 7: (1, 4, "1_1")}


def test_scan_rejects_unknown_form(capsys):
    code, _, err = run(capsys, "scan", "--form", "eta9^99", "--type", "II")
    assert code == 2
    assert "error:" in err


def test_console_script_is_installed():
    exe = shutil.which("etaq")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "expand", "--eta", "1:24", "--terms", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q - 24q^2 + 252q^3"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "etaq", "expand", "--eta", "1:24", "--terms", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "q - 24q^2 + 252q^3"
