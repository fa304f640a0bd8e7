"""Copulas with densities, log-density gradients, full conditionals and
samplers.

The h-function of coordinate j is the full conditional copula

    C_{j|-j}(u_j | u_-j) = D_-j C(u) / D_-j C(u_1, ..., 1, ..., u_d),

the cdf of U_j given U_-j = u_-j.  conditional(j, u_rest) conditions on
u_-j once and returns this cdf with its inverse; the inverse enables exact
inversion sampling of full conditionals, which is what the Gibbs engine
runs on.  hfun and hfun_inv evaluate the pair at one conditioning vector.

Closed forms used here:

  Clayton(theta), generator psi(t) = (1 + theta*t)^(-1/theta), with
  w(u) = sum(u_i^-theta) - d + 1:
    log c(u) = sum_{k=1..d-1} log(1+k*theta) - (theta+1) sum log u_i
               - (1/theta + d) log w(u)
    d/du_j log c = -(theta+1)/u_j + (1 + d*theta) u_j^(-theta-1) / w(u)
    h(u_j|u_-j) = ((w_rest + u_j^-theta - 1)/w_rest)^-(1/theta + d - 1),
                  w_rest = sum_{i != j}(u_i^-theta) - d + 2

  Survival Clayton: the distribution of 1 - U for U ~ Clayton, so
    c_s(u) = c(1-u) and h_s(u_j|u_-j) = 1 - h(1-u_j | 1-u_-j).

  Gaussian(R) and Student t(nu, R): mapped to normal / t scores; the
  conditional score distribution is normal, resp. univariate t with
  nu + d - 1 degrees of freedom and the usual location/scale.  Their
  score_conditional conditions on the other scores directly, and
  conditional is it composed with the level <-> score maps.
"""

import functools
import math

import numpy as np
from scipy import special

# probability-scale clamp applied before copula evaluations; samplers can
# land arbitrarily close to 0/1 where the formulas overflow
U_EPS = 1e-12


def clip01(u):
    # np.minimum(np.maximum(...)) is np.clip's value, NaN included, without
    # the wrapper's overhead on the hot path; on an array the second step
    # writes into the first one's result, so a presample-sized u costs one
    # new array, as np.clip did
    lo = np.maximum(u, U_EPS)
    return np.minimum(lo, 1.0 - U_EPS, out=lo if isinstance(lo, np.ndarray) else None)


def _log(w):
    """math.log for a point's scalar, np.log for a batch: numpy's vector log
    can differ from libm's in the last bit, and a point keeps libm's value."""
    return math.log(w) if isinstance(w, float) else np.log(w)


def _log1p(w):
    return math.log1p(w) if isinstance(w, float) else np.log1p(w)


def _as_float(u):
    return np.asarray(u, dtype=float)


def _check_interior(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("copula argument must lie in the open unit cube")
    return u


class Copula:
    """Base class; subclasses are immutable after construction.

    Subclasses implement the unchecked _logdensity and _grad_logdensity;
    logdensity and grad_logdensity check the argument and call them.  The
    densities take a point u of shape (d,) or a batch of shape (K, d) and
    reduce over the last axis.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("copula dimension must be >= 2")
        self.dim = int(dim)

    def logdensity(self, u):
        """log c(u) for u in the open unit cube."""
        return self._logdensity(_check_interior(u))

    def density(self, u):
        return np.exp(self.logdensity(u))

    def grad_logdensity(self, u):
        """The gradient of log c at u in the open unit cube."""
        return self._grad_logdensity(_check_interior(u))

    # the unchecked twins: u is a float array (a point or a batch of rows)
    # already in the open unit cube
    def _logdensity(self, u):
        raise NotImplementedError

    def _grad_logdensity(self, u):
        raise NotImplementedError

    def conditional(self, j, u_rest):
        """(cdf, ppf) of U_j given U_-j = u_rest, conditioned once.

        Each of the two takes a scalar or an array (one shared conditioning
        vector).  Every concrete copula also has hfun(j, uj, u_rest) and
        hfun_inv(j, p, u_rest): the cdf and the ppf of conditional(j, u_rest)
        at one argument.
        """
        raise NotImplementedError

    def sample(self, n, rng):
        raise NotImplementedError

    def _check_j(self, j, u_rest):
        if not 0 <= j < self.dim:
            raise ValueError(f"coordinate index {j} out of range for d={self.dim}")
        u_rest = np.asarray(u_rest, dtype=float)
        if u_rest.shape != (self.dim - 1,):
            raise ValueError(f"u_rest must have length {self.dim - 1}")
        return u_rest


class Independence(Copula):
    def _logdensity(self, u):
        return np.zeros(u.shape[:-1])[()]

    def _grad_logdensity(self, u):
        return np.zeros(u.shape)

    def conditional(self, j, u_rest):
        self._check_j(j, u_rest)
        return _as_float, _as_float

    def hfun(self, j, uj, u_rest):
        return self.conditional(j, u_rest)[0](uj)

    def hfun_inv(self, j, p, u_rest):
        return self.conditional(j, u_rest)[1](p)

    def sample(self, n, rng):
        return rng.uniform(size=(n, self.dim))


class Clayton(Copula):
    def __init__(self, theta: float, dim: int):
        super().__init__(dim)
        if theta <= 0.0:
            raise ValueError("Clayton theta must be > 0")
        self.theta = float(theta)
        d = self.dim
        self._logconst = sum(math.log1p(k * self.theta) for k in range(1, d))
        # h exponent 1/theta + d - 1 and its reciprocal for the inverse
        self._hexp = 1.0 / self.theta + d - 1.0

    def _logdensity(self, u):
        th, d = self.theta, self.dim
        w = (u ** -th).sum(axis=-1) - d + 1.0
        return self._logconst - (th + 1.0) * np.log(u).sum(axis=-1) - (1.0 / th + d) * _log(w)

    def _grad_logdensity(self, u):
        th, d = self.theta, self.dim
        t = u ** (-th - 1.0)
        w = (t * u).sum(axis=-1, keepdims=True) - d + 1.0
        return -(th + 1.0) / u + (1.0 + d * th) * t / w

    def conditional(self, j, u_rest):
        th, hexp = self.theta, self._hexp
        w_rest = np.sum(clip01(self._check_j(j, u_rest)) ** -th) - self.dim + 2.0

        def cdf(uj):
            return (1.0 + (clip01(uj) ** -th - 1.0) / w_rest) ** -hexp

        def ppf(p):
            a = clip01(p) ** (-1.0 / hexp) - 1.0
            return clip01((1.0 + w_rest * a) ** (-1.0 / th))

        return cdf, ppf

    def hfun(self, j, uj, u_rest):
        return self.conditional(j, u_rest)[0](uj)

    def hfun_inv(self, j, p, u_rest):
        return self.conditional(j, u_rest)[1](p)

    def sample(self, n, rng):
        # Marshall-Olkin frailty: V ~ Gamma(1/theta, 1), U_j = (1 + E_j/V)^(-1/theta)
        v = rng.gamma(1.0 / self.theta, 1.0, size=n)
        e = rng.exponential(size=(n, self.dim))
        return clip01((1.0 + e / v[:, None]) ** (-1.0 / self.theta))


class SurvivalClayton(Copula):
    """Clayton rotated by 180 degrees (upper tail dependent)."""

    def __init__(self, theta: float, dim: int):
        super().__init__(dim)
        self.base = Clayton(theta, dim)
        self.theta = self.base.theta

    # one check on 1 - u covers u as well: it rejects every u outside the
    # open cube, and also a u so small that 1 - u rounds to 1
    def logdensity(self, u):
        return self.base.logdensity(1.0 - np.asarray(u, dtype=float))

    def grad_logdensity(self, u):
        return -self.base.grad_logdensity(1.0 - np.asarray(u, dtype=float))

    def _logdensity(self, u):
        return self.base._logdensity(1.0 - u)

    def _grad_logdensity(self, u):
        return -self.base._grad_logdensity(1.0 - u)

    def conditional(self, j, u_rest):
        cdf, ppf = self.base.conditional(j, 1.0 - self._check_j(j, u_rest))
        return (lambda uj: 1.0 - cdf(1.0 - np.asarray(uj, dtype=float)),
                lambda p: 1.0 - ppf(1.0 - np.asarray(p, dtype=float)))

    def hfun(self, j, uj, u_rest):
        return self.conditional(j, u_rest)[0](uj)

    def hfun_inv(self, j, p, u_rest):
        return self.conditional(j, u_rest)[1](p)

    def sample(self, n, rng):
        return 1.0 - self.base.sample(n, rng)


def _check_corr(corr, dim=None):
    r = np.asarray(corr, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("correlation matrix must be square")
    if dim is not None and r.shape[0] != dim:
        raise ValueError("correlation matrix dimension mismatch")
    if not np.allclose(r, r.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(r), 1.0, atol=1e-12):
        raise ValueError("correlation matrix must have unit diagonal")
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise ValueError("correlation matrix must be positive definite") from exc
    return r


class _EllipticalCopula(Copula):
    """Shared machinery of the Gaussian and t copulas, which work in score
    space: a level u maps to its score _scores(u), the generator's quantile,
    and back by _levels, the generator's cdf.

    score_conditional(j, z_rest) conditions on the other coordinates'
    scores: the score of U_j given them is m + s T, where T has the
    returned cdf and ppf.  conditional(j, u_rest) is that part on
    _scores(u_rest), mapped back to levels.  sample_scores draws the scores
    that sample maps to levels; an elliptical JointLossModel uses both
    score-level parts directly.
    """

    def __init__(self, corr, dim=None):
        r = _check_corr(corr, dim)
        super().__init__(r.shape[0])
        self.corr = r
        self._chol = np.linalg.cholesky(r)
        self._rinv = np.linalg.inv(r)
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        # per-coordinate conditioning blocks: b_j = R_{j,-j} R_{-j,-j}^{-1},
        # schur_j = 1 - b_j . R_{-j,j}
        self._b = []
        self._rrest_inv = []
        self._schur = []
        d = self.dim
        for j in range(d):
            rest = [i for i in range(d) if i != j]
            rr = r[np.ix_(rest, rest)]
            rr_inv = np.linalg.inv(rr)
            b = r[j, rest] @ rr_inv
            self._b.append(b)
            self._rrest_inv.append(rr_inv)
            self._schur.append(float(1.0 - b @ r[rest, j]))

    def score_conditional(self, j, z_rest):
        """(m, s, cdf, ppf): the score of U_j given the others' scores z_rest
        is m + s T, and T has this cdf and ppf."""
        raise NotImplementedError

    def conditional(self, j, u_rest):
        m, s, cdf, ppf = self.score_conditional(j, self._scores(u_rest))
        return (lambda uj: cdf((self._scores(uj) - m) / s),
                lambda p: clip01(self._levels(m + s * ppf(clip01(p)))))

    def sample_scores(self, n, rng):
        """n rows of scores: correlated standard normals (the t copula
        divides them by its radial factor)."""
        return rng.standard_normal((n, self.dim)) @ self._chol.T

    def sample(self, n, rng):
        return clip01(self._levels(self.sample_scores(n, rng)))


class GaussianCopula(_EllipticalCopula):
    def _scores(self, u):
        return special.ndtri(clip01(u))

    def _levels(self, z):
        return special.ndtr(z)

    def _logdensity(self, u):
        z = self._scores(u)
        return -0.5 * self._logdet - 0.5 * (np.vecdot(z, np.matvec(self._rinv, z)) - np.vecdot(z, z))

    def _grad_logdensity(self, u):
        z = self._scores(u)
        dlogc_dz = z - np.matvec(self._rinv, z)
        # dz/du = 1/phi(z)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return dlogc_dz / phi

    def score_conditional(self, j, z_rest):
        # normal with mean m and sd s
        z_rest = self._check_j(j, z_rest)
        return float(self._b[j] @ z_rest), math.sqrt(self._schur[j]), special.ndtr, special.ndtri

    def hfun(self, j, uj, u_rest):
        return self.conditional(j, u_rest)[0](uj)

    def hfun_inv(self, j, p, u_rest):
        return self.conditional(j, u_rest)[1](p)


class StudentTCopula(_EllipticalCopula):
    def __init__(self, nu: float, corr, dim=None):
        super().__init__(corr, dim)
        if nu <= 0.0:
            raise ValueError("StudentT copula nu must be > 0")
        self.nu = float(nu)
        d, nu = self.dim, self.nu
        self._mvt_lognorm = (
            special.gammaln((nu + d) / 2.0)
            - special.gammaln(nu / 2.0)
            - 0.5 * d * math.log(nu * math.pi)
            - 0.5 * self._logdet
        )
        self._uni_lognorm = (
            special.gammaln((nu + 1.0) / 2.0)
            - special.gammaln(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
        )
        # a score given the other d - 1 is t with nu + d - 1 degrees of freedom
        self._df = nu + d - 1.0
        self._cond_cdf = functools.partial(special.stdtr, self._df)
        self._cond_ppf = functools.partial(special.stdtrit, self._df)

    def _scores(self, u):
        return special.stdtrit(self.nu, clip01(u))

    def _levels(self, z):
        return special.stdtr(self.nu, z)

    def _uni_logpdf(self, z):
        return self._uni_lognorm - 0.5 * (self.nu + 1.0) * np.log1p(z * z / self.nu)

    def _logdensity(self, u):
        z = self._scores(u)
        nu, d = self.nu, self.dim
        q = np.vecdot(z, np.matvec(self._rinv, z))
        log_joint = self._mvt_lognorm - 0.5 * (nu + d) * _log1p(q / nu)
        return log_joint - self._uni_logpdf(z).sum(axis=-1)

    def _grad_logdensity(self, u):
        z = self._scores(u)
        nu, d = self.nu, self.dim
        rz = np.matvec(self._rinv, z)
        q = np.vecdot(z, rz)[..., None]
        djoint_dz = -(nu + d) * rz / (nu + q)
        duni_dz = -(nu + 1.0) * z / (nu + z * z)
        pdf_z = np.exp(self._uni_logpdf(z))
        return (djoint_dz - duni_dz) / pdf_z

    def score_conditional(self, j, z_rest):
        # location m, scale s; the scale grows with the rest's Mahalanobis
        # norm q_rest
        z_rest = self._check_j(j, z_rest)
        m = float(self._b[j] @ z_rest)
        q_rest = float(z_rest @ (self._rrest_inv[j] @ z_rest))
        s = math.sqrt((self.nu + q_rest) / self._df * self._schur[j])
        return m, s, self._cond_cdf, self._cond_ppf

    def hfun(self, j, uj, u_rest):
        return self.conditional(j, u_rest)[0](uj)

    def hfun_inv(self, j, p, u_rest):
        return self.conditional(j, u_rest)[1](p)

    def sample_scores(self, n, rng):
        z = super().sample_scores(n, rng)
        w = rng.chisquare(self.nu, size=n) / self.nu
        z /= np.sqrt(w)[:, None]
        return z


def copula_from_dict(cfg: dict, dim: int) -> Copula:
    """Build a copula from {"kind": ..., ...} (config-file schema)."""
    kind = str(cfg["kind"]).lower()
    if kind == "independence":
        return Independence(dim)
    if kind == "clayton":
        return Clayton(float(cfg["theta"]), dim)
    if kind == "survivalclayton":
        return SurvivalClayton(float(cfg["theta"]), dim)
    if kind == "gaussian":
        return GaussianCopula(np.asarray(cfg["corr"], dtype=float), dim)
    if kind == "studentt":
        return StudentTCopula(float(cfg["nu"]), np.asarray(cfg["corr"], dtype=float), dim)
    raise ValueError(f"unknown copula kind {cfg['kind']!r}")
