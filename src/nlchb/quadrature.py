"""Adaptive quadrature on a finite interval: QUADPACK's `dqagse`, ported to Python floats.

`quad(f, a, b)` is the routine that `scipy.integrate.quad` runs for finite
bounds and no weight: 21-point Gauss-Kronrod rules (`dqk21`), bisection of the
subinterval with the largest error estimate (`dqpsrt` keeps the error list
ordered) and Wynn's epsilon algorithm on the partial sums (`dqelg`).
Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*, Springer 1983.

Every operation is QUADPACK's, on the same operands in the same order, so the
value and the error estimate are bitwise those of `scipy.integrate.quad`, and f
is called at the same points in the same order. The work lists keep
QUADPACK's 1-based indices (slot 0 is unused), so each line reads against the
Fortran.
"""

from __future__ import annotations

import math
import sys
import warnings

__all__ = ["quad"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# dqk21's Kronrod abscissae (the odd entries are the 10-point Gauss nodes, the
# last is the centre), Kronrod weights and Gauss weights
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)  # fmt: skip
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980244660, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)  # fmt: skip
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)  # fmt: skip

_IER = ("", "subdivision limit reached", "roundoff error detected", "bad integrand behaviour",
        "roundoff error in the extrapolation table", "probably divergent")  # fmt: skip


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50) -> tuple[float, float]:
    """(integral of f over [a, b], estimate of its absolute error).

    f is called on Python floats. As in `scipy.integrate.quad`, a == b gives
    (0.0, 0.0), b < a integrates over [b, a] and negates the value, and a
    nonzero QUADPACK error code is reported as a warning (a UserWarning).
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValueError(f"invalid quadrature input: limit={limit}, epsabs={epsabs}, epsrel={epsrel}")
    a, b = float(a), float(b)
    if a == b:
        return 0.0, 0.0
    flip, a, b = b < a, min(a, b), max(a, b)
    result, abserr, ier = _qagse(f, a, b, epsabs, epsrel, limit)
    if ier:
        warnings.warn(f"quadrature error code {ier}: {_IER[ier]}", stacklevel=2)
    return (-result if flip else result), abserr


def _qagse(f, a, b, epsabs, epsrel, limit):
    """dqagse on a < b: (result, abserr, ier)."""
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord, rlist2, res3la = [0] * (limit + 1), [0.0] * 53, [0.0] * 4
    ier = ierro = 0

    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b1, b2 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr]), blist[maxerr]
        a2, erlast = b1, errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # the interval has shrunk to a point
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _total(rlist, last), errsum, ier - 1 if ier > 2 else ier
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue  # the interval to bisect next is not yet the smallest
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect a larger one
            # first if one comes next on the list
            larger = False
            for _ in range(nrmax, (limit + 3 - last if last > 2 + limit // 2 else last) + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        # go back to bisecting the largest error
        maxerr = iord[1]
        errmax, nrmax, extrap, small, erlarg = elist[maxerr], 1, False, small * 0.5, errsum

    # the loop always ends in a break: at last == limit, ier is 1
    summed = abserr == _OFLOW
    test_divergence = not summed
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed, test_divergence = abserr > errsum, area != 0.0
    if summed:
        result, abserr = _total(rlist, last), errsum
    elif test_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # where area == 0, the Fortran's result/area is +-inf or nan
        ratio = result / area if area != 0.0 else math.inf if result != 0.0 else math.nan
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule on [a, b]."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = float(f(centr))
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result, resabs, resasc = resk * hlgth, resabs * dhlgth, resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord ordered by decreasing error; return (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin, jbnd = elist[last], jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd], iord[jupbn] = maxerr, last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: extend the epsilon table epstab[1..n]; return (n, nres, result, abserr)."""
    nres += 1
    abserr, result = _OFLOW, epstab[n]
    if n >= 3:
        limexp, newelm, num, k1 = 50, (n - 1) // 2, n, n
        epstab[n + 2], epstab[n] = epstab[n], _OFLOW
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2, delta3 = e2 - e1, e1 - e0
            err2, err3 = abs(delta2), abs(delta3)
            tol2, tol3 = max(abs(e2), e1abs) * _EPMACH, max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):  # e0, e1, e2 agree to machine accuracy
                return n, nres, res, max(err2 + err3, 5.0 * _EPMACH * abs(res))
            e3, epstab[k1] = epstab[k1], e1
            delta1 = e1 - e3
            err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two entries are too close: drop the tail
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1  # irregular behaviour: drop the tail
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 - num % 2  # shift the table by two, then move its last n entries to the front
        epstab[ib : ib + 2 * newelm + 1 : 2] = epstab[ib + 2 : ib + 2 * newelm + 3 : 2]
        epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
        if nres < 4:
            res3la[nres], abserr = result, _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, nres, result, max(abserr, 5.0 * _EPMACH * abs(result))


def _total(rlist, last):
    """rlist[1] + ... + rlist[last], added left to right."""
    total = 0.0
    for k in range(1, last + 1):
        total = total + rlist[k]
    return total
