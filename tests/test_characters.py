"""Kronecker symbols and the real characters built from them."""

import pytest

from etaq.characters import (
    TRIVIAL,
    Character,
    _squarefree_part,
    kronecker,
    kronecker_character,
    parse_character,
    trivial_mod,
)
from etaq.oracles import primes_up_to


def test_kronecker_matches_euler_criterion():
    for p in primes_up_to(500):
        if p == 2:
            continue
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_at_two():
    # (a/2) depends on a mod 8: 0 for even, +1 for 1,7, -1 for 3,5
    values = {1: 1, 3: -1, 5: -1, 7: 1}
    for a in range(-40, 40):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        else:
            assert kronecker(a, 2) == values[a % 8]


def test_kronecker_completely_multiplicative_in_both_slots():
    for a in range(-20, 21):
        for b in range(-20, 21):
            for n in (3, 5, 12, 35):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for n in range(1, 30):
        for m in range(1, 30):
            for a in (-7, -3, 2, 5, 11):
                assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_character_call_and_periodicity():
    chi = kronecker_character(-4)
    assert chi.modulus == 4
    for n in range(1, 60):
        assert chi(n) == chi(n + 4 * 7)
    assert [chi(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]


def test_values_follow_the_period_only_where_there_is_one():
    # (d/2) = +-1 for odd d, so d = 3 mod 4 with an odd trivial part has no
    # period and is no Dirichlet character: it is rejected; every other pair
    # is periodic and values() reads one period
    for trivial_part in range(1, 13):
        for d in range(-15, 16):
            if d == 0 or _squarefree_part(d)[0] != d:
                continue
            if trivial_part % 2 and d % 4 == 3:
                with pytest.raises(ValueError, match="not a Dirichlet character"):
                    Character(trivial_part, d)
                continue
            chi = Character(trivial_part, d)
            m = chi.modulus
            direct = [chi(n) for n in range(8 * m)]
            assert all(direct[n] == direct[n % m] for n in range(8 * m)), chi
            assert chi.values(8 * m) == direct, chi
            assert chi.values(m // 2) == direct[: m // 2], chi
    for text in ("kron(-1)", "kron(3)", "kron(-5)", "1_3 * kron(7)"):
        with pytest.raises(ValueError, match="not a Dirichlet character"):
            parse_character(text)
    # with a factor 2 in the trivial part the same symbol is the character of 4d
    assert parse_character("1_2 * kron(3)") == kronecker_character(12)
    assert parse_character("kron(-1) * 1_2") == kronecker_character(-4)


def test_product_folds_square_parts():
    chi = kronecker_character(-3)
    square = chi * chi
    assert square.disc == 1
    assert square.trivial_part == 3
    for n in range(1, 30):
        assert square(n) == (1 if n % 3 != 0 else 0)


def test_product_of_distinct_discs():
    prod = kronecker_character(-4) * kronecker_character(-3)
    # (-4)(-3) = 12, a positive fundamental discriminant
    assert prod.disc == 12 or (prod.disc == 3 and prod.trivial_part % 2 == 0)
    for n in range(1, 50):
        assert prod(n) == kronecker(-4, n) * kronecker(-3, n)


def test_kronecker_character_folds_square_input():
    chi = kronecker_character(-12)  # -12 = (-3) * 2^2
    assert chi.disc == -3
    assert chi.modulus == 6
    for n in range(1, 40):
        expected = kronecker(-12, n)
        assert chi(n) == expected, n


def test_trivial_character():
    one = trivial_mod(6)
    assert [one(n) for n in range(10)] == [0, 1, 0, 0, 0, 1, 0, 1, 0, 0]
    assert TRIVIAL(0) == 1  # modulus 1 sees every integer as a unit


def test_describe_and_parse_roundtrip():
    cases = [
        TRIVIAL,
        trivial_mod(14),
        kronecker_character(-4),
        kronecker_character(5) * trivial_mod(3),
        Character(12, -3),
    ]
    for chi in cases:
        again = parse_character(chi.describe())
        assert again == chi, chi.describe()


def test_parse_character_examples():
    assert parse_character("1_6") == trivial_mod(6)
    assert parse_character("kron(-4)") == kronecker_character(-4)
    combined = parse_character("1_2 * kron(-3)")
    assert combined.trivial_part == 2
    assert combined.disc == -3
    with pytest.raises(ValueError):
        parse_character("legendre(3)")
    with pytest.raises(ValueError):
        parse_character("")


def test_character_validation():
    with pytest.raises(ValueError):
        Character(0, 1)
    with pytest.raises(ValueError):
        Character(1, 12)  # 12 is not squarefree as a disc input here


def test_modulus_is_lcm_of_parts():
    assert Character(6, -3).modulus == 6
    assert Character(2, 5).modulus == 10
    assert Character(1, -2).modulus == 8  # -8 = (-2) * 2^2 folds to disc -2


def test_discriminants_past_the_trial_division_limit_are_refused():
    # _squarefree_part factors by trial division, so |d| > 10^12 is refused
    # at once, a prime d = 10^20 + 39 included; |d| = 10^12 still factors
    assert _squarefree_part(-(10**12)) == (-1, 10**6)
    assert _squarefree_part(10**12 - 11) == (10**12 - 11, 1)  # a prime
    for d in (10**12 + 1, -(10**12) - 1, 100000000000000000039):
        with pytest.raises(ValueError, match="beyond the limit"):
            _squarefree_part(d)
        with pytest.raises(ValueError, match="beyond the limit"):
            parse_character(f"kron({d})")
        with pytest.raises(ValueError, match="beyond the limit"):
            kronecker_character(d)
