"""The standard normal CDF, ported from the Cephes ``ndtr``.

:func:`ndtr` returns what ``scipy.special.ndtr`` returns, bit for bit, so
:func:`~repro.pmf.constructors.discretized_normal` needs no SciPy import.
It keeps Cephes' coefficients, branch points and Horner order
(``polevl``; ``p1evl`` is ``polevl`` with a leading 1, and ``1 * x`` is
exact). The polynomials run on NumPy arrays, whose add and
multiply round as C does; the exponential is ``math.exp``, the libm call
Cephes makes (NumPy's SIMD ``exp`` may differ by an ulp).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr"]

_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R/S for x >= 8.
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1.
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for ``|x| <= 1`` (odd, so no sign branch is needed)."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(a: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for ``a >= 0`` (or nan)."""
    out = np.zeros_like(a)  # the underflow value
    small = a < 1.0
    out[small] = 1.0 - _erf(a[small])
    with np.errstate(over="ignore"):
        z = -a * a
    rest = ~small & ~(z < -_MAXLOG)
    x = a[rest]
    ez = np.array([math.exp(v) for v in z[rest].tolist()])
    mid = x < 8.0
    p = np.where(mid, _polevl(x, _P), _polevl(x, _R))
    q = np.where(mid, _polevl(x, _Q), _polevl(x, _S))
    out[rest] = (ez * p) / q
    return out


def ndtr(a: np.ndarray) -> np.ndarray:
    """``Pr(N(0, 1) <= a)`` elementwise; nan maps to nan."""
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    z = np.abs(x)
    out = np.empty_like(x)
    small = z < _SQRT1_2
    out[small] = 0.5 + 0.5 * _erf(x[small])
    big = ~small
    y = 0.5 * _erfc(z[big])
    out[big] = np.where(x[big] > 0, 1.0 - y, y)
    return out
