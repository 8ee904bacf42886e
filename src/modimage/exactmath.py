"""Exact integer and rational arithmetic predicates.

Everything operates on Python ints and fractions.Fraction, so all results
are exact. No floating point is used anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24; for
# larger n the same set is a strong probable-prime test, which is all the
# factor() contract promises.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MAX_SIEVE_BOUND = 10 ** 6

# the largest prime the package takes, as the l of a classification or the
# p of a point count: a larger l is refused before its primality test,
# which takes seconds at a few thousand digits, and a larger p before
# ec.ap builds its p-byte table of quadratic characters
MAX_PRIME = 10 ** 7

# the most digits a rational literal may have in its numerator or its
# denominator, the exponent's shift counted: as many as int() reads from
# a string
MAX_LITERAL_DIGITS = 4300


class LiteralTooLong(ValueError):
    """A rational literal with more than MAX_LITERAL_DIGITS digits."""


def _echo(x) -> str:
    """x quoted for an error message: a string cut to 24 characters, any
    other repr to a short prefix, and a value whose repr raises (an int
    past the interpreter's int-to-str digit limit) by its type's name."""
    if isinstance(x, str) and len(x) > 24:
        return repr(x[:24]) + "..."
    try:
        text = repr(x)
    except Exception:
        return f"<{type(x).__name__}>"
    return text if len(text) <= 40 else text[:40] + "..."


def to_fraction(x) -> Fraction:
    """x as a Fraction, the one way the package reads a rational.

    A string is checked first: more than MAX_LITERAL_DIGITS digits in its
    numerator or denominator, counting the exponent's shift, raise
    LiteralTooLong before any digit is converted, so 1e9999999 is not
    built. A value with no Fraction raises ValueError: a malformed string,
    one with a zero denominator (ZeroDivisionError in Fraction) or a
    non-finite float (OverflowError)."""
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, str):
            mantissa, e, exponent = x.strip().lower().partition("e")
            shift = abs(int(exponent)) if e else 0
            if max(sum(map(str.isdigit, part))
                   for part in mantissa.split("/")) + shift \
                    > MAX_LITERAL_DIGITS:
                raise LiteralTooLong(
                    f"the numerator and denominator of a rational must be "
                    f"at most {MAX_LITERAL_DIGITS} digits long")
        return Fraction(x)
    except LiteralTooLong:
        raise
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError(f"{_echo(x)} is not a rational number") from None


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def icbrt(n: int) -> int:
    """Floor of the real cube root of n >= 0, computed with integer Newton."""
    if n < 0:
        raise ValueError("icbrt requires n >= 0")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _int_is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _int_is_cube(n: int) -> bool:
    m = abs(n)
    r = icbrt(m)
    return r * r * r == m


def is_square(x: Rat) -> bool:
    """True iff x is the square of a rational number."""
    x = to_fraction(x)
    return _int_is_square(x.numerator) and _int_is_square(x.denominator)


def is_cube(x: Rat) -> bool:
    """True iff x is the cube of a rational number."""
    x = to_fraction(x)
    return _int_is_cube(x.numerator) and _int_is_cube(x.denominator)


def legendre(a: Rat, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p.

    a may be a rational whose denominator is prime to p; the symbol is then
    (num/p)*(den/p), consistent with a mod p being den^-1 * num.
    """
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError("legendre requires an odd prime modulus")
    a = to_fraction(a)
    if a.denominator % p == 0:
        raise ValueError("denominator not invertible mod p")
    return _euler(a.numerator * pow(a.denominator, -1, p), p)


def _euler(a: int, p: int) -> int:
    """Euler's criterion, the package's one quadratic character: 0 when
    the prime p divides a, else 1 or -1 as a is or is not a square mod p.
    p is not checked; at p = 2 every unit is a square."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


class FactorizationIncomplete(ValueError):
    """Trial division up to the bound left a cofactor that is neither 1
    nor a probable prime."""


def factor(n: int, trial_bound: int = 10 ** 6) -> dict:
    """Factor |n| into primes by trial division up to trial_bound.

    Returns {prime: exponent} when the cofactor left after trial division
    is 1 or passes a primality test; otherwise raises
    FactorizationIncomplete naming that cofactor, or its bit length when
    it has too many digits for str(). An n that is 0 or not an int (a
    float or a Fraction, even of integral value) raises ValueError.
    """
    if not isinstance(n, int) or n == 0:
        raise ValueError("only a nonzero int can be factored")
    m = abs(n)
    factors: dict = {}
    for p in _trial_primes(trial_bound):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m == 1:
        return factors
    if m <= trial_bound or is_probable_prime(m):
        factors[m] = factors.get(m, 0) + 1
        return factors
    try:
        name = str(m)
    except ValueError:  # past the interpreter's int-to-str digit limit
        name = f"of {m.bit_length()} bits"
    raise FactorizationIncomplete(
        f"cofactor {name} resists trial division up to {trial_bound}")


def _trial_primes(bound: int):
    """Yield 2, 3, 5, ... up to bound (simple incremental wheel)."""
    if bound >= 2:
        yield 2
    if bound >= 3:
        yield 3
    p = 5
    step = 2
    while p <= bound:
        yield p
        p += step
        step = 6 - step


def primes_up_to(bound: int) -> list:
    """All primes <= bound, by a sieve of Eratosthenes. The sieve takes
    O(bound) memory, so a bound above _MAX_SIEVE_BOUND raises ValueError,
    as does a bound that is not an int (a float or a Fraction, even of
    integral value)."""
    if not isinstance(bound, int):
        raise ValueError("the sieve bound is not an integer")
    if bound > _MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {bound} exceeds {_MAX_SIEVE_BOUND}")
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytes((bound - i * i) // i + 1)
    return [i for i, v in enumerate(sieve) if v]

