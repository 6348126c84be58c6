"""A second numerical oracle: the integral representations at 30 digits.

mpmath's `quad` is tanh-sinh as well, but an independent implementation in
arbitrary precision.  At 30 digits it holds the paper's identities far
below anything a double can resolve, and the package's double-precision
results to their own tolerances.
"""

import math
import random
import timeit
from fractions import Fraction

import pytest

from carleman import (
    CoefficientTable,
    coefficient_by_moment,
    scaled_defect,
    scaled_defect_by_quadrature,
    tail_bound,
)
from carleman.moments import DENSITY_IDENTITIES
from carleman.quadrature import integrate
from carleman.verify import E_HI, E_LO, GAP_SAMPLE_XS

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 30
# relative agreement asked of a 30-digit integral; the worst seen is 1.7e-28
ORACLE_REL = mpmath.mpf("1e-26")

TABLE = CoefficientTable.from_recurrence(30)


def density(s):
    """(1/pi) s^s (1-s)^(1-s) sin(pi s) at working precision."""
    return s**s * (1 - s) ** (1 - s) * mpmath.sin(mp.pi * s) / mp.pi


def quad(func):
    return mpmath.quad(func, [0, 1])


def close(value, target):
    return abs(value - target) <= ORACLE_REL * abs(target)


@pytest.fixture(autouse=True)
def thirty_digits():
    with mpmath.workdps(DIGITS):
        yield


@pytest.mark.parametrize("n", range(2, 31))
def test_moments_match_exact_table(n):
    """Eq. (3.1): b_n = (1/e) int density(s) s^(n-2) ds, against the exact b_n."""
    value = quad(lambda s: density(s) * s ** (n - 2)) / mp.e
    exact = mpmath.mpf(TABLE.numerators[n - 1]) / TABLE.denominator
    assert close(value, exact)
    assert abs(coefficient_by_moment(n).value - float(exact)) <= 1e-12


MP_IDENTITIES = {
    "density-integral": (lambda s: density(s), lambda: mp.e / 24),
    "density-first-moment": (lambda s: density(s) * s, lambda: mp.e / 48),
    "density-over-s": (lambda s: density(s) / s, lambda: mp.e / 2 - 1),
    "density-over-1-minus-s": (lambda s: density(s) / (1 - s), lambda: mp.e / 2 - 1),
}


@pytest.mark.parametrize("identity", DENSITY_IDENTITIES, ids=lambda row: row[0])
def test_density_identities(identity):
    name, _, target, integrand, _ = identity
    mp_integrand, mp_target = MP_IDENTITIES[name]
    exact = mp_target()
    assert close(quad(mp_integrand), exact)
    assert abs(target - exact) <= 1e-16
    assert abs(integrate(integrand).value - exact) <= 1e-12


@pytest.mark.parametrize("x", GAP_SAMPLE_XS)
def test_scaled_defect_two_faces(x):
    """Eq. (2.2): (x+1)(e - (1+1/x)^x) = e/2 + int density(s)/(x+s) ds."""
    x_mp = mpmath.mpf(x)
    closed = (x_mp + 1) * (mp.e - (1 + 1 / x_mp) ** x_mp)
    assert close(mp.e / 2 + quad(lambda s: density(s) / (x_mp + s)), closed)
    assert abs(scaled_defect(x) - closed) <= 1e-11 * closed
    assert abs(scaled_defect_by_quadrature(x).value - closed) <= 1e-12


def test_density_envelope_lemma():
    """density(s)/(s(1-s)) < (s/(1-s))^s <= 1 on (0, 1/2], from sin(pi s) < pi s.

    With the symmetry s -> 1-s this gives b_n < 1/(e n(n+1)) for every
    n >= 2 through Eq. (3.1).  The points are log-uniform in (5e-7, 1/2],
    where the first gap, about (pi s)^2/6 relative, stays above 4e-13.
    """
    rng = random.Random(20140)
    for _ in range(200):
        s = mpmath.mpf(10) ** (-6 * rng.random()) / 2
        envelope = (s / (1 - s)) ** s
        assert density(s) / (s * (1 - s)) < envelope <= 1, s


def test_e_bracket_holds_e():
    """The exact bracket of the partial-sum sandwich, against e at 60 digits."""
    with mpmath.workdps(60):
        e = +mp.e
        assert mpmath.mpf(E_LO.numerator) / E_LO.denominator < e
        assert e < mpmath.mpf(E_HI.numerator) / E_HI.denominator


@pytest.mark.parametrize("m", [1, 6, 20, 2000])
def test_tail_bound_where_every_term_underflows(m):
    """Past the point where u**(m+1)/((m+1)(m+2)) rounds to 0.0, the bound is
    3 * 2**-1074 / (1 - u), and it stays above the tail at 30 digits."""
    for step in range(8):
        x = 2.0 ** ((1075 + math.log2((m + 1) * (m + 2)) + step / 4) / (m + 1)) - 1.0
        u = 1.0 / (x + 1.0)
        assert tail_bound(x, m) == 3 * math.ulp(0.0) / (1.0 - u), x
        u_mp = 1 / (mpmath.mpf(x) + 1)
        tail = mp.e * mpmath.nsum(lambda k: u_mp**k / (k * (k + 1)), [m + 1, mpmath.inf])
        assert tail < tail_bound(x, m), x


def lerch_phi(u, a):
    """The Lerch transcendent Phi(u, 1, a) = sum_{k>=0} u**k/(a+k), as (1/a) 2F1(1, a; a+1; u).

    mpmath.lerchphi gives the same through a quadrature: 0.2 to 1.5 s a
    call at 80 digits, and off by 6e-9 relative at u = 6.5e-162.
    """
    return mpmath.hyp2f1(1, a, a + 1, u) / a


def tail_grid():
    """(x, m) pairs: x log-uniform in [1e-3, 1e6], exact inputs, and the subnormal band at m = 1."""
    rng = random.Random(27)
    grid = [(10 ** rng.uniform(-3, 6), m) for m in (1, 6, 20, 2000) for _ in range(12)]
    grid += [(x, m) for x in (Fraction(1, 3), 10**20 + 1) for m in (1, 6, 20, 2000)]
    return grid + [(1.5e161 * 2 ** (-step / 2), 1) for step in range(-1, 24, 4)]


def test_lerch_phi_matches_mpmath_lerchphi():
    with mpmath.workdps(80):
        for u, a in ((1 / mpmath.mpf(3.5), 7), (1 / mpmath.mpf(1.001), 21)):
            assert abs(lerch_phi(u, a) / mpmath.lerchphi(u, 1, a) - 1) < mpmath.mpf(10) ** -40


def test_tail_bound_against_80_digits():
    """e u**(m+1) (Phi(u, 1, m+1) - Phi(u, 1, m+2)) at the exact x, u = 1/(x+1), against tail_bound.

    The bound is never below the tail, and where the tail is at least
    2**-1000 it is at most 1e-8 relatively above it; no call takes 5 ms.
    """
    floor = mpmath.mpf(2) ** -1000
    for x, m in tail_grid():
        with mpmath.workdps(80):
            exact = Fraction(x)
            u = mpmath.mpf(exact.denominator) / (exact.numerator + exact.denominator)
            tail = mp.e * u ** (m + 1) * (lerch_phi(u, m + 1) - lerch_phi(u, m + 2))
            bound = tail_bound(x, m)
            assert tail <= bound, (x, m)
            if tail >= floor:
                assert bound <= tail * (1 + mpmath.mpf("1e-8")), (x, m)
        assert min(timeit.repeat(lambda: tail_bound(x, m), number=1, repeat=3)) < 5e-3, (x, m)
