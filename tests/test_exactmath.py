"""Tests for the integer and rational helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modimage import classifier, exactmath
from modimage.exactmath import (
    FactorizationIncomplete,
    factor,
    is_cube,
    is_probable_prime,
    is_square,
    legendre,
    primes_up_to,
)
from oracles import naive_is_square, squares_mod


def test_primality_small():
    primes = {p for p in range(2, 200) if is_probable_prime(p)}
    assert primes == set(primes_up_to(199))
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert is_probable_prime(2 ** 61 - 1)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_primes_up_to_refuses_a_non_integer_bound():
    for bound in (50.5, 30.0, Fraction(30), float("nan"), float("inf")):
        with pytest.raises(ValueError, match="is not an integer"):
            primes_up_to(bound)


def test_primes_up_to_refuses_a_bound_past_the_cap(monkeypatch):
    cap = exactmath._MAX_SIEVE_BOUND
    assert classifier.MAX_SCAN_BOUND < cap
    assert primes_up_to(cap)[-1] == 999983

    def no_sieve(*args):
        raise AssertionError("sieve allocated")

    monkeypatch.setattr(exactmath, "bytearray", no_sieve, raising=False)
    for bound in (cap + 1, 10 ** 12):
        with pytest.raises(ValueError, match="exceeds"):
            primes_up_to(bound)


def test_factor_basic():
    # factors the absolute value; callers track the sign themselves
    assert factor(1) == {}
    assert factor(-12) == {2: 2, 3: 1}
    assert factor(2450) == {2: 1, 5: 2, 7: 2}
    assert factor(2 ** 10 * 3 ** 4) == {2: 10, 3: 4}


def test_factor_refuses_zero_and_a_non_int():
    # a float or a Fraction is refused, not returned as its own factor
    for n in (1.5, Fraction(3, 2), 12.0, Fraction(12), "12", 0):
        with pytest.raises(ValueError, match="^only a nonzero int can be "
                                             "factored$"):
            factor(n)


def test_factor_incomplete():
    # 2^80 + 1 has no prime factor below 1000, so with that trial bound
    # factor raises, naming the composite cofactor it could not split
    n = 2 ** 80 + 1
    with pytest.raises(FactorizationIncomplete) as info:
        factor(n, trial_bound=1000)
    words = str(info.value).split()
    assert words[0] == "cofactor"
    assert words[2:] == "resists trial division up to 1000".split()
    cofactor = int(words[1])
    assert cofactor > 1 and n % cofactor == 0
    assert not is_probable_prime(cofactor)


def test_factor_incomplete_names_a_long_cofactor_by_bit_length(monkeypatch):
    # a cofactor past int()'s 4300-digit str limit is named by its bit
    # length; the primality test is stubbed so that no test of a
    # 5000-digit number runs
    monkeypatch.setattr(exactmath, "is_probable_prime", lambda n: False)
    n = 10 ** 5000 + 1  # 17 is its only prime factor below 40, once
    with pytest.raises(FactorizationIncomplete) as info:
        factor(n, trial_bound=40)
    bits = (n // 17).bit_length()
    assert str(info.value) == \
        f"cofactor of {bits} bits resists trial division up to 40"


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6))
def test_factor_multiplies_back(n):
    fac = factor(n)
    prod = 1
    for p, e in fac.items():
        assert is_probable_prime(p)
        prod *= p ** e
    assert prod == n


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_is_square_matches_naive(n):
    assert is_square(n) == naive_is_square(n)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=-50, max_value=50))
def test_recognises_perfect_powers(n):
    assert is_square(n * n)
    assert is_cube(n ** 3)
    if n not in (-1, 0, 1):
        assert not is_cube(n ** 3 + 1) or n ** 3 + 1 in (0, 1, -1)


def test_powers_on_fractions():
    assert is_square(Fraction(9, 16))
    assert not is_square(Fraction(9, 17))
    assert is_cube(Fraction(-27, 8))
    assert not is_cube(Fraction(27, 10))
    assert not is_square(Fraction(-9, 16))


def test_legendre_by_enumeration():
    # legendre and the Euler criterion kernel it shares with gl2
    for symbol in (legendre, exactmath._euler):
        for p in (3, 5, 7, 11, 13, 17):
            sq = squares_mod(p)
            for a in range(1, p):
                expected = 1 if a in sq else -1
                assert symbol(a, p) == expected
            assert symbol(0, p) == 0
            assert symbol(p, p) == 0
    # at 2 every unit is a square: the kernel gives 1, never -1, there
    assert [exactmath._euler(a, 2) for a in range(-2, 3)] == [0, 1, 0, 1, 0]


def test_legendre_rational_arguments():
    # (1/2 | 7) agrees with (2|7)^-1 = (2|7) since values are +-1.
    assert legendre(Fraction(1, 2), 7) == legendre(2, 7)
    assert legendre(Fraction(-3, 5), 7) == legendre(-3, 7) * legendre(5, 7)
    with pytest.raises(ValueError):
        legendre(Fraction(1, 7), 7)
    with pytest.raises(ValueError):
        legendre(1, 4)


@settings(derandomize=True, deadline=None)
@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
    st.sampled_from([3, 5, 7, 11, 13, 17, 19]),
)
def test_legendre_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

