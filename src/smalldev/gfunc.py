"""The auxiliary infinite product G(t) = prod_k sinc(a_k t) with
a_k = c k^{-1-gamma} and c = 1/zeta(1+gamma), so that sum a_k = 1.

Evaluation is log-domain: factors up to a finite depth are multiplied
explicitly; the remaining tail of log sinc(a_k t) is summed analytically
through its quadratic and quartic series terms (Hurwitz-zeta sums), with
the sextic-term remainder bounded and kept below 1e-12.  The depth needed
for a given argument is found adaptively, so small t costs almost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import CapacityError, CertificateError, PreconditionError

#: absolute log-scale error allowed from the truncated product tail
_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class GFunctionSpec:
    gamma: float
    depth: int = 2_000_000

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise PreconditionError("gamma must be in (0, 1)")
        if self.depth < 10:
            raise PreconditionError("depth must be >= 10")

    @property
    def c(self) -> float:
        return 1.0 / float(zeta(1.0 + self.gamma, 1.0))

    def a(self, k) -> np.ndarray:
        return self.c * np.asarray(k, float) ** (-1.0 - self.gamma)

    def coefficient_sum(self) -> float:
        """sum_{k=1}^infty a_k, split as 10^5 explicit terms + zeta tail."""
        head = float(np.sum(self.a(np.arange(1, 100_001))))
        tail = self.c * float(zeta(1.0 + self.gamma, 100_001.0))
        return head + tail

    def _tail_ok(self, D: int, tmax: float) -> bool:
        # beyond depth D: need a_{D+1} t <= 1 so the log-sinc series
        # converges factorwise, and the sextic remainder below tolerance
        if float(self.a(D + 1)) * tmax > 1.0:
            return False
        rem = (2.0 / 2835.0) * tmax ** 6 * self.c ** 6 \
            * float(zeta(6.0 + 6.0 * self.gamma, D + 1.0))
        return rem <= _TAIL_TOL

    def depth_needed(self, tmax: float) -> int:
        D = 16
        while not self._tail_ok(D, tmax):
            D *= 2
            if D > self.depth:
                raise CapacityError(
                    f"depth cap {self.depth} cannot certify |t| = {tmax:.4g}"
                )
        return D


def log_abs_g(spec: GFunctionSpec, t) -> np.ndarray:
    """log |G(t)| elementwise; -inf at zeros of the product."""
    t = np.atleast_1d(np.asarray(t, float))
    out = np.empty(len(t))
    for s in range(0, len(t), 64):  # chunked so the (t, k) matrix stays small
        tc = np.abs(t[s : s + 64])
        D = spec.depth_needed(float(np.max(tc))) if np.max(tc) > 0 else 16
        a = spec.a(np.arange(1, D + 1))
        x = tc[:, None] * a[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(x > 0.0, np.log(np.abs(np.sinc(x / math.pi))), 0.0)
        head = np.sum(logs, axis=1)
        tail_sq = spec.c ** 2 * float(zeta(2.0 + 2.0 * spec.gamma, D + 1.0))
        tail_qu = spec.c ** 4 * float(zeta(4.0 + 4.0 * spec.gamma, D + 1.0))
        out[s : s + 64] = head - tc ** 2 * tail_sq / 6.0 \
            - tc ** 4 * tail_qu / 180.0
    return out


def g_eval(spec: GFunctionSpec, t: float) -> float:
    """G(t) with sign; tail factors beyond the depth are all positive."""
    tt = float(t)
    if tt == 0.0:
        return 1.0
    la = float(log_abs_g(spec, tt)[0])
    k = np.arange(1, spec.depth_needed(abs(tt)) + 1)
    x = abs(tt) * spec.a(k)
    sign = 1.0 if int(np.count_nonzero(np.sin(x) < 0.0)) % 2 == 0 else -1.0
    return sign * math.exp(la)


@dataclass(frozen=True)
class GCertificate:
    spec: GFunctionSpec
    theta_G: float
    bounded_by_one: bool
    C_G: float
    decay_exponent: float
    fit_t_range: tuple


def g_certify(spec: GFunctionSpec, t_max: float = 1e4,
              fit_t_min: float = 10.0) -> GCertificate:
    """Certify the three working properties of G.

    * theta_G = inf |G| over [0, 1], from a grid minimum with a Lipschitz
      pad on log |G| (|d log G / dt| <= 0.4 t sum a_k^2 for a_k t <= 1);
    * |G| <= 1 on a real test grid (each factor is a sinc);
    * envelope decay: fit log |G| ~ -C_G t^p on local maxima of |G| over
      [fit_t_min, t_max]; p should be close to 1/(1+gamma).
    """
    # -- theta_G on [0, 1], 4001-point grid
    tg = np.linspace(0.0, 1.0, 4001)
    vals = log_abs_g(spec, tg)
    lip = 0.4 * spec.c ** 2 * float(zeta(2.0 + 2.0 * spec.gamma, 1.0))
    pad = lip * (tg[1] - tg[0]) / 2.0
    theta = math.exp(float(np.min(vals)) - pad)
    if not theta > 0.0:
        raise CertificateError("theta_G certification failed")
    # -- global bound |G| <= 1
    tb = np.concatenate([tg, np.geomspace(1.0, t_max, 2000)])
    bounded = bool(np.all(log_abs_g(spec, tb) <= 1e-12))
    if not bounded:
        raise CertificateError("|G| <= 1 violated on the test grid")
    # -- envelope decay fit on local maxima
    tf = np.geomspace(fit_t_min, t_max, 3000)
    lf = log_abs_g(spec, tf)
    peaks = np.flatnonzero((lf[1:-1] >= lf[:-2]) & (lf[1:-1] >= lf[2:])) + 1
    if len(peaks) < 5:
        raise CertificateError("too few envelope maxima for the decay fit")
    y = np.log(-lf[peaks])
    xlog = np.log(tf[peaks])
    p, logC = np.polyfit(xlog, y, 1)
    return GCertificate(spec=spec, theta_G=theta, bounded_by_one=bounded,
                        C_G=float(np.exp(logC)), decay_exponent=float(p),
                        fit_t_range=(fit_t_min, t_max))
