"""Parametric marginal loss distributions.

Each marginal exposes pdf/logpdf/dlogpdf/cdf/quantile in closed form.
dlogpdf is d/dx log f(x), needed for gradient-based sampling; quantile
is the generalized inverse inf{x : F(x) >= u}.

A custom marginal subclasses Marginal, sets ``support`` and implements
logpdf, cdf, quantile and the unchecked derivative _dlogpdf, each
elementwise on arrays.  It may also override _terms(x, grad), which
returns (logpdf, cdf, _dlogpdf) at points in the support in one pass, with
None for the derivative unless grad: the joint model's density and
gradient call it once per group of coordinates.  GPD overrides it to
share its log1p; an override must give the same values as the three
methods, bit for bit.  The gradient takes the density as exp(logpdf),
which is what pdf returns.

A point's gradient calls _point_terms(x, grad) instead, with x the
group's coordinates as a list of floats, and takes three lists of floats
back.  The base class runs _terms on an array and converts, so a custom
marginal needs no more than the four methods.  GPD and Pareto compute in
floats, with one numpy ufunc call per special function over the group's
coordinates: math's log1p/expm1 and numpy's vector loops can differ in
the last bit, and an override must give _terms's values bit for bit.
"""

import math

import numpy as np
from scipy import special

_LOG_2PI = math.log(2.0 * math.pi)


class Marginal:
    """Base class. Subclasses set ``support`` and the five evaluations;
    the derivative is the unchecked _dlogpdf, which dlogpdf calls after
    checking the support (JointLossModel has checked it already).

    The evaluations act elementwise on arrays: JointLossModel calls _terms
    once on the sub-vector of all coordinates that share one distribution
    (same class, equal attributes).
    """

    support = "real-line"  # or "nonnegative-half-line"

    @property
    def support_min(self):
        return 0.0 if self.support == "nonnegative-half-line" else -np.inf

    def in_support(self, x):
        return np.asarray(x) >= self.support_min

    def _terms(self, x, grad):
        """(logpdf, cdf, _dlogpdf) at a float array x in the support; the
        derivative is None unless grad."""
        return self.logpdf(x), self.cdf(x), self._dlogpdf(x) if grad else None

    def _point_terms(self, x, grad):
        """_terms at one point's coordinates x, a list of floats in the
        support (NaN passed through), as lists of floats."""
        lp, u, dm = self._terms(np.array(x), grad)
        return lp.tolist(), u.tolist(), dm.tolist() if grad else None

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def logpdf(self, x):
        raise NotImplementedError

    def dlogpdf(self, x):
        if (~self.in_support(x)).any():
            raise ValueError(f"{type(self).__name__}: x outside support")
        return self._dlogpdf(x)

    def _dlogpdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def _check_quantile_arg(self, u):
        if isinstance(u, float):
            # a Gibbs update's scalar, checked as the array is, NaN passed
            # through; an np.float64 keeps numpy's scalar arithmetic
            if u <= 0.0 or u >= 1.0:
                raise ValueError("quantile argument must lie in (0, 1)")
            return np.float64(u)
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ValueError("quantile argument must lie in (0, 1)")
        return u


class GPD(Marginal):
    """Generalized Pareto distribution with cdf 1 - (1 + xi*x/beta)^(-1/xi).

    Heavy-tail regime xi >= 0 only; xi = 0 degenerates to Exp(1/beta).
    """

    support = "nonnegative-half-line"

    def __init__(self, xi: float, beta: float):
        if not 0.0 <= xi < math.inf:
            raise ValueError("GPD shape xi must be finite and >= 0")
        if not 0.0 < beta < math.inf:
            raise ValueError("GPD scale beta must be finite and > 0")
        self.xi = float(xi)
        self.beta = float(beta)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.xi == 0.0:
            out = -x / self.beta - math.log(self.beta)
        else:
            out = (-1.0 / self.xi - 1.0) * np.log1p(self.xi * x / self.beta) - math.log(self.beta)
        return np.where(x >= 0.0, out, -np.inf)

    def _dlogpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -(self.xi + 1.0) / (self.beta + self.xi * x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.maximum(x, 0.0)
        if self.xi == 0.0:
            out = -np.expm1(-xc / self.beta)
        else:
            out = -np.expm1((-1.0 / self.xi) * np.log1p(self.xi * xc / self.beta))
        return out

    def _terms(self, x, grad):
        if self.xi == 0.0:
            return super()._terms(x, grad)
        xix = self.xi * x
        log1p = np.log1p(xix / self.beta)
        return (
            (-1.0 / self.xi - 1.0) * log1p - math.log(self.beta),
            -np.expm1((-1.0 / self.xi) * log1p),
            -(self.xi + 1.0) / (self.beta + xix) if grad else None,
        )

    def _point_terms(self, x, grad):
        xi, beta = self.xi, self.beta
        log_beta, neg = math.log(beta), -(xi + 1.0)
        dm = [neg / (beta + xi * v) for v in x] if grad else None
        if xi == 0.0:
            # logpdf's np.where sends NaN to -inf, and np.maximum(x, 0)
            # maps -0.0 to 0.0
            e = np.expm1([-(0.0 if v <= 0.0 else v) / beta for v in x]).tolist()
            return [-v / beta - log_beta if v >= 0.0 else -math.inf for v in x], [-a for a in e], dm
        log1p = np.log1p([xi * v / beta for v in x]).tolist()
        c, k = -1.0 / xi - 1.0, -1.0 / xi
        e = np.expm1([k * a for a in log1p]).tolist()
        return [c * a - log_beta for a in log1p], [-a for a in e], dm

    def quantile(self, u):
        u = self._check_quantile_arg(u)
        if self.xi == 0.0:
            return -self.beta * np.log1p(-u)
        return (self.beta / self.xi) * np.expm1(-self.xi * np.log1p(-u))


class Pareto(Marginal):
    """Pareto (Lomax) distribution with cdf 1 - (lam/(lam+x))^theta, x >= 0."""

    support = "nonnegative-half-line"

    def __init__(self, lam: float, theta: float):
        if not 0.0 < lam < math.inf:
            raise ValueError("Pareto scale lam must be finite and > 0")
        if not 0.0 < theta < math.inf:
            raise ValueError("Pareto shape theta must be finite and > 0")
        self.lam = float(lam)
        self.theta = float(theta)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = (
            math.log(self.theta)
            + self.theta * math.log(self.lam)
            - (self.theta + 1.0) * np.log(self.lam + np.maximum(x, 0.0))
        )
        return np.where(x >= 0.0, out, -np.inf)

    def _dlogpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -(self.theta + 1.0) / (self.lam + x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.maximum(x, 0.0)
        return -np.expm1(self.theta * (np.log(self.lam) - np.log(self.lam + xc)))

    def _point_terms(self, x, grad):
        lam, th = self.lam, self.theta
        # np.log(lam + np.maximum(x, 0)) serves logpdf and cdf alike; the
        # constant is summed first, as logpdf's expression does
        logs = np.log([lam + (0.0 if v <= 0.0 else v) for v in x]).tolist()
        const, log_lam = math.log(th) + th * math.log(lam), float(np.log(lam))
        e = np.expm1([th * (log_lam - a) for a in logs]).tolist()
        return (
            [const - (th + 1.0) * a if v >= 0.0 else -math.inf for v, a in zip(x, logs)],
            [-a for a in e],
            [-(th + 1.0) / (lam + v) for v in x] if grad else None,
        )

    def quantile(self, u):
        u = self._check_quantile_arg(u)
        return self.lam * np.expm1((-1.0 / self.theta) * np.log1p(-u))


class StudentT(Marginal):
    """Student t with degrees of freedom nu, location mu and scale sigma."""

    support = "real-line"

    def __init__(self, nu: float, mu: float = 0.0, sigma: float = 1.0):
        if not 0.0 < nu < math.inf:
            raise ValueError("StudentT degrees of freedom nu must be finite and > 0")
        if not math.isfinite(mu):
            raise ValueError("StudentT location mu must be finite")
        if not 0.0 < sigma < math.inf:
            raise ValueError("StudentT scale sigma must be finite and > 0")
        self.nu = float(nu)
        self.mu = float(mu)
        self.sigma = float(sigma)
        self._lognorm = (
            special.gammaln((self.nu + 1.0) / 2.0)
            - special.gammaln(self.nu / 2.0)
            - 0.5 * math.log(self.nu * math.pi)
            - math.log(self.sigma)
        )

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return self._lognorm - 0.5 * (self.nu + 1.0) * np.log1p(z * z / self.nu)

    def _dlogpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return -(self.nu + 1.0) * z / (self.nu + z * z) / self.sigma

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return special.stdtr(self.nu, z)

    def quantile(self, u):
        u = self._check_quantile_arg(u)
        return self.mu + self.sigma * special.stdtrit(self.nu, u)


class Normal(Marginal):
    """Gaussian with mean mu and standard deviation sigma."""

    support = "real-line"

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not math.isfinite(mu):
            raise ValueError("Normal location mu must be finite")
        if not 0.0 < sigma < math.inf:
            raise ValueError("Normal scale sigma must be finite and > 0")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * _LOG_2PI

    def _dlogpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return -z / self.sigma

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return special.ndtr(z)

    def quantile(self, u):
        u = self._check_quantile_arg(u)
        return self.mu + self.sigma * special.ndtri(u)

