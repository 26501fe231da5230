"""The built-in claim database and the claim record format."""

import dataclasses
from collections import Counter

import pytest

from etaq.claims import KINDS, CongruenceClaim, builtin_claims


def test_builtin_counts_by_kind():
    counts = Counter(c.kind for c in builtin_claims())
    assert counts == {
        "two-exponent": 30,
        "square-class": 22,
        "prime-power": 21,
        "unit-factor": 2,
        "twist-power": 24,
        "raw-identity": 1,
    }
    assert sum(counts.values()) == 100


def test_builtin_ids_unique_and_sorted_forms():
    claims = builtin_claims()
    ids = [c.claim_id for c in claims]
    assert len(set(ids)) == len(ids)
    for c in claims:
        assert c.kind in KINDS


def test_planted_controls_are_marked():
    expected_failures = {c.claim_id for c in builtin_claims() if c.expect == "fail"}
    assert expected_failures == {
        "square-class:delta:l29",
        "prime-power:eta1^8 eta2^8:l2^8:sharpened",
        "twist-power:eta2^12:l3^4",
    }


def test_two_exponent_rows_satisfy_exponent_relation():
    from etaq.etaquot import lookup

    for c in builtin_claims():
        if c.kind != "two-exponent" or c.ell == 2:
            continue
        k = int(lookup(c.form).weight)
        assert (c.m + c.m_prime - (k - 1)) % (c.ell - 1) == 0, c.claim_id


def test_prime_power_rows_satisfy_exponent_relation():
    from etaq.etaquot import lookup

    for c in builtin_claims():
        if c.kind != "prime-power":
            continue
        k = int(lookup(c.form).weight)
        phi = c.ell ** (c.t - 1) * (c.ell - 1)
        assert (c.m + c.m_prime - (k - 1)) % phi == 0, c.claim_id


def test_json_roundtrip_every_builtin_claim():
    # keys follow the field order, so claim files stay byte-stable
    order = [field.name for field in dataclasses.fields(CongruenceClaim)]
    for c in builtin_claims():
        data = c.to_json()
        assert list(data) == [name for name in order if name in data], c.claim_id
        again = CongruenceClaim.from_json(data)
        assert again == c, c.claim_id


def test_json_omits_defaults():
    c = next(x for x in builtin_claims() if x.kind == "square-class" and x.expect == "pass")
    data = c.to_json()
    assert "expect" not in data
    assert "note" not in data
    assert data.get("t", 1) == 1 or "t" not in data
    # a key is absent exactly when its field holds its declared default
    for c in builtin_claims():
        data = c.to_json()
        for field in dataclasses.fields(CongruenceClaim):
            at_default = getattr(c, field.name) == field.default
            assert (field.name not in data) == at_default, (c.claim_id, field.name)
    two = CongruenceClaim(claim_id="x", kind="twist-power", form="eta3^8", ell=3, t=2)
    assert two.to_json() == {"claim_id": "x", "kind": "twist-power", "form": "eta3^8", "ell": 3, "t": 2}


def test_from_json_rejects_unknown_fields():
    c = builtin_claims()[0]
    data = c.to_json()
    data["surprise"] = 1
    with pytest.raises(ValueError):
        CongruenceClaim.from_json(data)


def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim(claim_id="x", kind="nonsense", form="delta", ell=3)
    with pytest.raises(ValueError):
        CongruenceClaim(claim_id="x", kind="square-class", form="delta", ell=1)
    with pytest.raises(ValueError):
        CongruenceClaim(
            claim_id="x", kind="two-exponent", form="delta", ell=3, m=2, m_prime=1, psi="1_1"
        )
    with pytest.raises(ValueError):
        CongruenceClaim(claim_id="x", kind="two-exponent", form="delta", ell=3, m=0, m_prime=1)
    with pytest.raises(ValueError):
        CongruenceClaim(claim_id="x", kind="raw-identity", form="delta", ell=3)
    # a modulus past 2^512 is refused before ell^t is formed
    CongruenceClaim(claim_id="x", kind="twist-power", form="eta3^8", ell=2, t=512)
    for ell, t in ((2, 513), (3, 324), (3, 10**7)):
        with pytest.raises(ValueError, match=rf"modulus {ell}\^{t} is beyond the limit ell\^t <= 2\^512"):
            CongruenceClaim(claim_id="x", kind="twist-power", form="eta3^8", ell=ell, t=t)
