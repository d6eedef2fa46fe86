"""`nlchb.quadrature.quad` against `scipy.integrate.quad`, bit for bit.

The port runs QUADPACK's `dqagse` with QUADPACK's operations in QUADPACK's
order, so value and error estimate must equal scipy's exactly, on the
integrands nlchb integrates and on integrands that drive the bisection, the
epsilon extrapolation and each limit exit.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from nlchb.kernel import AVG_RING_FRACTION, AVG_RING_MAX, PROFILES, calibrate_mollifier
from nlchb.quadrature import quad


def assert_same_as_scipy(f, a, b, **kw):
    """quad and scipy's quad give the same bits, warn alike and call f at the same points."""
    calls = {"ours": [], "scipy": []}

    def recorded(key):
        def g(x):
            calls[key].append(x)
            return f(x)

        return g

    with warnings.catch_warnings(record=True) as ours_warned:
        warnings.simplefilter("always")
        ours = quad(recorded("ours"), a, b, **kw)
    with warnings.catch_warnings(record=True) as scipy_warned:
        warnings.simplefilter("always")
        ref = integrate.quad(recorded("scipy"), a, b, **kw)
    assert np.float64(ours).tobytes() == np.float64(ref).tobytes(), (ours, ref)
    assert calls["ours"] == calls["scipy"]
    assert len(ours_warned) == len(scipy_warned)
    assert all(type(x) is float for x in calls["ours"])
    return ours


def calibration_integrand(shape, gamma):
    base = PROFILES[shape][0]
    return lambda s: base(s) * s ** (2 + 1 - gamma)


GAMMAS = np.linspace(0.0, 1.0, 102)[1:-1]


@pytest.mark.parametrize("shape", sorted(PROFILES))
def test_calibration_integrands(shape):
    for gamma in GAMMAS:
        assert_same_as_scipy(
            calibration_integrand(shape, float(gamma)), 0.0, 1.0,
            limit=400, epsabs=1e-14, epsrel=1e-13,
        )


@pytest.mark.parametrize("shape", sorted(PROFILES))
def test_residual_integrand(shape):
    for gamma in (0.05, 0.3, 0.5, 0.77, 0.95):
        m = calibrate_mollifier(gamma, shape)
        assert_same_as_scipy(lambda s: m.eta(s) * s ** (2 + 1 - m.gamma), 0.0, 1.0, limit=200)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_kernel_norms_inner_disc(n):
    # the near-origin radial integral of kernel_norms on an n^2 unit square
    h = 1.0 / n
    for shape, eps in itertools.product(sorted(PROFILES), (0.5, 0.2, 0.1, 0.05, 0.025)):
        ring = min(AVG_RING_MAX, int(AVG_RING_FRACTION * eps / h)) + 1
        r0 = min((ring + 0.5) * h, eps)
        dj = functools.partial(calibrate_mollifier(0.5, shape).kernel_radial_derivative, eps=eps)
        assert_same_as_scipy(lambda r: 2.0 * np.pi * r * abs(float(dj(r))), 0.0, r0, limit=200)


def test_sphere_integrals():
    assert_same_as_scipy(lambda t: np.cos(t) ** 2, 0.0, 2.0 * np.pi)
    assert_same_as_scipy(lambda t: 2.0 * np.pi * np.cos(t) ** 2 * np.sin(t), 0.0, np.pi)


HARD = {
    "x^-0.5": (lambda x: x**-0.5 if x > 0.0 else 0.0, 0.0, 1.0),
    "x^-0.9": (lambda x: x**-0.9 if x > 0.0 else 0.0, 0.0, 1.0),
    "1/x": (lambda x: 1.0 / x if x > 0.0 else 0.0, 0.0, 1.0),
    "log x": (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0),
    "|x-0.3|^-0.5": (lambda x: abs(x - 0.3) ** -0.5 if x != 0.3 else 0.0, 0.0, 1.0),
    "step at 0.37": (lambda x: 1.0 if x > 0.37 else 0.0, 0.0, 1.0),
    "sin 50x": (lambda x: math.sin(50.0 * x), 0.0, 1.0),
    "x cos 1000x": (lambda x: x * math.cos(1000.0 * x), 0.0, 1.0),
    "exp(-x^2)": (lambda x: math.exp(-x * x), -10.0, 10.0),
    "zero interval": (math.exp, 0.5, 0.5),
    "reversed": (math.exp, 1.0, -0.5),
}


@pytest.mark.parametrize("limit", [1, 5, 50, 200, 400])
@pytest.mark.parametrize("name", sorted(HARD))
def test_hard_integrands(name, limit):
    f, a, b = HARD[name]
    assert_same_as_scipy(f, a, b, limit=limit)


def _power(p, c):
    return lambda x: abs(x - c) ** p if x != c else 0.0


def _sin_power(p, c):
    return lambda x: math.sin(1.0 / abs(x - c)) * abs(x - c) ** p if x != c else 0.0


# integrands and tolerances that reach the exits and branches the cases above
# leave alone: ties in the error list, roundoff flags, a bisection down to
# machine precision, divergence, and an extrapolation table that fills up
EXITS = {
    "step with ties": (lambda x: 1.0 if x > 0.5 else -0.9, -1.0, 1.0, dict(epsabs=1e-300, epsrel=0.0)),
    "|x-0.5|^-1.5": (_power(-1.5, 0.5), 0.0, 1.0, {}),
    "|x-0.5|^-1": (_power(-1.0, 0.5), 0.0, 1.0, dict(limit=400)),
    "|x-0.37|^-1": (_power(-1.0, 0.37), 0.0, 1.0, {}),
    "|x-0.37|^-1 to machine precision": (_power(-1.0, 0.37), 0.0, 1.0, dict(epsabs=1e-300, epsrel=0.0, limit=500)),
    "x^-1.5": (_power(-1.5, 0.0), 0.0, 1.0, {}),
    "|x-0.37|^-1.5": (_power(-1.5, 0.37), 0.0, 1.0, dict(epsabs=0.0, epsrel=1.2e-14)),
    "sin(1/r)/r": (_sin_power(-1.0, 0.37), 0.0, 1.0, dict(epsabs=0.0, epsrel=1.2e-14)),
    "sin(1/x) x^-0.95": (_sin_power(-0.95, 0.0), 0.0, 1.0, dict(epsabs=1e-300, epsrel=0.0, limit=400)),
    "odd 1/(x-0.37)": (lambda x: 1.0 / (x - 0.37) if x != 0.37 else 0.0, 0.0, 1.0, dict(epsabs=1e-3, epsrel=0.0)),
    "rounding noise": (lambda x: ((x + 1.0) - 1.0) - x, -1.0, 1.0, dict(epsabs=0.0, epsrel=1e-13)),
    "x^-0.5 absolute": (_power(-0.5, 0.0), 0.0, 1.0, dict(epsabs=1e-14, epsrel=0.0)),
    "x^-0.99 absolute": (_power(-0.99, 0.0), 0.0, 1.0, dict(epsabs=1e-14, epsrel=0.0, limit=400)),
}


@pytest.mark.parametrize("name", sorted(EXITS))
def test_exits(name):
    f, a, b, kw = EXITS[name]
    assert_same_as_scipy(f, a, b, **kw)


def test_flags_and_rejects_as_scipy_does():
    with pytest.warns(UserWarning, match="subdivision limit"):
        quad(HARD["1/x"][0], 0.0, 1.0, limit=5)
    with pytest.raises(ValueError):
        quad(math.exp, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError):
        quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)
