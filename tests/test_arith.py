from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digit_sum, digit_value, qadic_expand
from loewy.arith import (
    cyclic_powers,
    cyclic_subgroups,
    cyclotomic_value,
    divisors,
    euler_phi,
    factorize,
    format_decimal,
    iroot,
    is_pierpont_prime,
    is_prime,
    moebius,
    mult_order,
    order_dividing,
    parse_decimal,
    prime_power_base,
    resolve_z,
)
from loewy.errors import CapacityError, DomainError


def test_qadic_expand_examples():
    assert qadic_expand(7592, 3) == [2, 1, 0, 2, 0, 1, 1, 0, 1]
    assert sum(qadic_expand(7592, 3)) == 8
    assert qadic_expand(0, 5) == []
    assert qadic_expand(10**4 - 1, 10) == [9, 9, 9, 9]


def test_qadic_expand_rejects_bad_base():
    with pytest.raises(DomainError):
        qadic_expand(5, 1)
    with pytest.raises(DomainError):
        digit_sum(5, 0)


def test_digit_sum_examples():
    assert digit_sum(7592, 3) == 8
    assert digit_sum(0, 7) == 0
    assert digit_sum(7, 2) == 3


@given(st.integers(0, 10**12), st.integers(2, 1000))
def test_expand_round_trip(x, q):
    digits = qadic_expand(x, q)
    assert all(0 <= d < q for d in digits)
    assert not digits or digits[-1] != 0
    assert digit_value(digits, q) == x


@given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(2, 97))
def test_digit_sum_additive_without_carries(x, y, q):
    dx, dy = qadic_expand(x, q), qadic_expand(y, q)
    length = max(len(dx), len(dy))
    dx += [0] * (length - len(dx))
    dy += [0] * (length - len(dy))
    if all(a + b < q for a, b in zip(dx, dy)):
        assert digit_sum(x + y, q) == digit_sum(x, q) + digit_sum(y, q)


def test_mult_order_examples():
    assert mult_order(3, 11) == 5
    assert mult_order(2, 7) == 3
    assert mult_order(1, 97) == 1
    assert mult_order(5, 1) == 1
    with pytest.raises(DomainError):
        mult_order(6, 9)


@given(st.integers(1, 2000), st.integers(1, 2000))
@settings(max_examples=200)
def test_mult_order_divides_phi(a, modulus):
    from math import gcd

    if gcd(a, modulus) != 1:
        return
    assert euler_phi(modulus) % mult_order(a, modulus) == 0


def test_mult_order_matches_brute_force():
    # the least t >= 1 with a^t = 1, for every unit a modulo every N <= 200;
    # a and a + N give the same order
    for modulus in range(1, 201):
        for a in range(modulus):
            if gcd(a, modulus) != 1:
                continue
            t, power = 1, a % modulus
            while power != 1 % modulus:
                t, power = t + 1, power * a % modulus
            assert mult_order(a, modulus) == mult_order(a + modulus, modulus) == t


def test_order_dividing_matches_mult_order():
    assert order_dividing(3, 11, 10) == 5
    big = (9**15 - 1) // 5551
    assert pow(9, order_dividing(9, big, 15), big) == 1
    with pytest.raises(DomainError):
        order_dividing(2, 11, 7)  # ord_11(2) = 10 does not divide 7


def test_cyclic_powers():
    assert cyclic_powers(2, 7) == [1, 2, 4]
    assert cyclic_powers(3, 70) == [pow(3, i, 70) for i in range(12)]
    assert cyclic_powers(1, 10) == [1]
    assert cyclic_powers(9, 1) == [0]
    with pytest.raises(DomainError):
        cyclic_powers(6, 9)  # a non-unit never returns to 1


def _subgroups_by_frozenset(modulus):
    """The per-unit definition: one frozenset of powers per unit, keeping the
    smallest generator of each distinct set."""
    groups = {}
    for a in range(1, modulus):
        if gcd(a, modulus) == 1:
            sub = frozenset(pow(a, i, modulus)
                            for i in range(1, mult_order(a, modulus) + 1))
            groups.setdefault(sub, a)
    return sorted(((a, tuple(sorted(sub))) for sub, a in groups.items()),
                  key=lambda group: (len(group[1]), group[0]))


def test_cyclic_subgroups_match_per_unit_sets():
    for modulus in [*range(2, 401), 5040, 10000]:
        assert cyclic_subgroups(modulus) == _subgroups_by_frozenset(modulus), modulus


def test_cyclic_subgroups_of_a_large_prime():
    groups = cyclic_subgroups(9973)
    assert len(groups) == len(divisors(9972)) == 18
    for gen, sub in groups:
        assert len(sub) == mult_order(gen, 9973)
        assert sorted(gen * x % 9973 for x in sub) == list(sub)  # closed
    assert cyclic_subgroups(1) == [(0, (0,))]


def test_arithmetic_functions():
    assert euler_phi(11**2) == 110
    assert moebius(12) == 0
    assert moebius(30) == -1
    assert moebius(1) == 1
    assert factorize(531440) == {2: 4, 5: 1, 7: 1, 13: 1, 73: 1}
    assert factorize(1) == {}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(DomainError):
        factorize(0)


def test_is_prime_deterministic_range():
    assert is_prime(380808546861411923)  # 18-digit prime within 64-bit range
    assert not is_prime(1)
    assert not is_prime(3215031751)  # strong pseudoprime to first four bases
    with pytest.raises(CapacityError):
        is_prime(1 << 65)
    with pytest.raises(CapacityError):  # its message does not print n
        is_prime(2**15000 - 1)


def test_cyclotomic_values():
    assert cyclotomic_value(5, 3) == 121
    assert cyclotomic_value(6, 2) == 3
    assert cyclotomic_value(12, 5) == 601
    assert cyclotomic_value(1, 7) == 6


def test_cyclotomic_product_identity():
    for q in range(2, 21):
        for n in range(1, 41):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_value(d, q)
            assert prod == q**n - 1


def test_pierpont_primes():
    assert is_pierpont_prime(17)
    assert not is_pierpont_prime(11)
    assert is_pierpont_prime(2)
    assert is_pierpont_prime(3) and is_pierpont_prime(5)
    assert not is_pierpont_prime(15)
    known = [p for p in range(2, 200) if is_pierpont_prime(p)]
    assert known == [2, 3, 5, 7, 13, 17, 19, 37, 73, 97, 109, 163, 193]


def test_iroot_and_prime_power_base():
    assert iroot(10**18, 2) == 10**9
    assert iroot(2**63 - 1, 63) == 1
    assert prime_power_base(2**10) == (2, 10)
    assert prime_power_base(11**3) == (11, 3)
    assert prime_power_base(1) is None
    assert prime_power_base(12) is None
    assert prime_power_base(97) == (97, 1)


class TestResolveZ:
    def test_from_e_z_or_both(self):
        assert resolve_z(3, 12, e=7592) == 70
        assert resolve_z(3, 12, z=70) == 70
        assert resolve_z(3, 12, e=7592, z=70) == 70
        assert resolve_z(2, 3, e=7) == 1

    @pytest.mark.parametrize("q,n,kwargs", [
        (3, 12, {}),
        (3, 12, {"e": 11}),  # ord_11(3) = 5 does not divide 12
        (3, 12, {"e": 0}),
        (3, 12, {"e": -7592}),
        (3, 12, {"z": 71}),
        (3, 12, {"z": 0}),
        (3, 12, {"z": -70, "e": -7592}),
        (1, 12, {"z": 1}),
        (3, 0, {"z": 1}),
    ])
    def test_rejects(self, q, n, kwargs):
        with pytest.raises(DomainError):
            resolve_z(q, n, **kwargs)

    def test_inconsistency_is_checked_first(self):
        # 7593 does not divide 3^12 - 1 either; the message names the pair
        with pytest.raises(DomainError, match="inconsistent"):
            resolve_z(3, 12, e=7593, z=70)

    def test_messages_print_no_huge_integer(self):
        for kwargs in ({"e": 7, "z": 3}, {"e": 2**15000 + 1}, {"z": 2**15000 + 1}):
            with pytest.raises(DomainError) as info:
                resolve_z(2, 15000, **kwargs)
            assert len(str(info.value)) < 80

    def test_z_alone_never_forms_q_to_the_n(self):
        assert resolve_z(2, 10**18, z=3) == 3


class TestDecimalCodec:
    @pytest.mark.parametrize("text", [
        "12", " 12 ", "+12", "-12", "0012", "-0", "\t3\n", "\u2003 7\u2003",
        "1_000", "1_2_3", "\u0661\u0662", "\uff11\uff12",
        "1__0", "_1", "1_", "+_1", "--1", "+-1", "1 2", "", " ",
        "0x21", "1e5", "1E0", "12.0", ".5", "5.", "nan", "inf", "Infinity",
    ])
    def test_parse_accepts_what_int_accepts(self, text):
        try:
            expected = int(text, 10)
        except ValueError:
            with pytest.raises(DomainError):
                parse_decimal(text)
        else:
            assert parse_decimal(text) == expected

    @given(st.integers(-10**60, 10**60))
    def test_round_trip(self, x):
        assert format_decimal(x) == str(x)
        assert parse_decimal(str(x)) == x

    def test_beyond_4300_digits(self):
        x = 2**15000 - 1
        text = format_decimal(x)
        assert len(text) == 4516 and text.startswith("28179608796") and text.endswith("9375")
        assert parse_decimal(text) == x
        assert format_decimal(-x) == "-" + text
