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
from scipy.special import cython_special

# probability-scale clamp applied before copula evaluations; samplers can
# land arbitrarily close to 0/1 where the formulas overflow
U_EPS = 1e-12
_U_MAX = 1.0 - U_EPS

# rows of standard normals an elliptical copula draws, and multiplies into
# its score matrix, at a time: the one temporary beside the output
SCORE_BLOCK = 4096


def clip01(u, out=None):
    """u clamped to [U_EPS, 1 - U_EPS], NaN passed through; an array is
    written into out when it is given, and a list of floats (a point's
    levels) gives a list of floats."""
    if isinstance(u, list):
        return [U_EPS if v < U_EPS else _U_MAX if v > _U_MAX else v for v in u]
    if isinstance(u, float):
        # a Gibbs update's scalar: the comparisons pick np.maximum's and
        # np.minimum's value without the ufunc machinery, and the result
        # stays an np.float64, because a later float ** x would take libm's
        # pow, not numpy's
        return np.float64(U_EPS if u < U_EPS else _U_MAX if u > _U_MAX else u)
    # np.minimum(np.maximum(...)) is np.clip's value, NaN included, without
    # the wrapper's overhead on the hot path; on an array the second step
    # writes into the first one's result, so a presample-sized u costs one
    # new array, as np.clip did, and none with out
    lo = np.maximum(u, U_EPS, out=out)
    return np.minimum(lo, _U_MAX, out=lo if isinstance(lo, np.ndarray) else None)


def _log(w):
    """math.log for a point's scalar, np.log for a batch: numpy's vector log
    can differ from libm's in the last bit, and a point keeps libm's value."""
    return math.log(w) if isinstance(w, float) else np.log(w)


def _log1p(w):
    return math.log1p(w) if isinstance(w, float) else np.log1p(w)


# score_law's and level_law's special functions: cython_special's double
# versions, which take and return a float without the ufunc machinery and
# evaluate the same C functions as scipy.special's ufuncs, to the same bits.
_C_STDTR = cython_special.stdtr["double"]
_C_STDTRIT = cython_special.stdtrit["double"]
_C_NDTR = cython_special.ndtr["double"]
_C_NDTRI = cython_special.ndtri


def _numpy_sum(terms):
    """The list of floats terms added in the order of numpy's float64 sum
    along a contiguous axis: left to right below 8 terms, else pairwise
    (_pairwise_sum) and added to 0.0.  Builtin sum is not used, because
    from Python 3.12 on it compensates, which changes the last bits."""
    if len(terms) < 8:
        s = 0.0
        for t in terms:
            s += t
        return s
    return 0.0 + _pairwise_sum(terms, 0, len(terms))


def _pairwise_sum(terms, start, n):
    """numpy's pairwise sum of the n >= 8 terms from start on: eight
    running sums over blocks of 8, combined pairwise, then the rest left to
    right; above 128 terms, the two halves' sums (the first a multiple of
    8 terms long) added."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms, start, half) + _pairwise_sum(terms, start + half, n - half)
    r = terms[start:start + 8]
    end = start + n - n % 8
    for i in range(start + 8, end, 8):
        r = [a + b for a, b in zip(r, terms[i:i + 8])]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[end:start + n]:
        s += t
    return s


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

    def _point_grad_logdensity(self, u):
        """_grad_logdensity at one point's levels u, a list of floats in the
        open unit cube (NaN passed through), as a list of floats.  An
        override computes in floats, with one numpy ufunc call per special
        function, and must give _grad_logdensity's values bit for bit."""
        return self._grad_logdensity(np.array(u)).tolist()

    def conditional(self, j, u_rest):
        """(cdf, ppf) of U_j given U_-j = u_rest, conditioned once.

        Each of the two takes a scalar or an array (one shared conditioning
        vector).
        """
        raise NotImplementedError

    # Every concrete copula binds these two in its own body (hfun, hfun_inv
    # = Copula.hfun, Copula.hfun_inv): perfbench's tracer wraps only the
    # methods a class defines itself, and its tests look hfun_inv up in
    # vars(StudentTCopula).
    def hfun(self, j, uj, u_rest):
        """The h-function C_{j|-j}(uj | u_rest): the cdf of
        conditional(j, u_rest) at uj, a scalar or an array."""
        return self.conditional(j, u_rest)[0](uj)

    def hfun_inv(self, j, p, u_rest):
        """The inverse h-function: the ppf of conditional(j, u_rest) at p,
        a scalar or an array."""
        return self.conditional(j, u_rest)[1](p)

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

    hfun, hfun_inv = Copula.hfun, Copula.hfun_inv

    def sample(self, n, rng):
        return rng.uniform(size=(n, self.dim))


class Clayton(Copula):
    def __init__(self, theta: float, dim: int):
        super().__init__(dim)
        if not 0.0 < theta < math.inf:
            raise ValueError("Clayton theta must be finite and > 0")
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

    def _point_grad_logdensity(self, u):
        th, d = self.theta, self.dim
        # u ** e on an array is np.power for every e < -1
        t = np.power(u, -th - 1.0).tolist()
        w = _numpy_sum([a * b for a, b in zip(t, u)]) - d + 1.0
        c = 1.0 + d * th
        return [-(th + 1.0) / b + c * a / w for a, b in zip(t, u)]

    def conditional(self, j, u_rest):
        th, hexp = self.theta, self._hexp
        w_rest = np.sum(clip01(self._check_j(j, u_rest)) ** -th) - self.dim + 2.0

        def cdf(uj):
            return (1.0 + (clip01(uj) ** -th - 1.0) / w_rest) ** -hexp

        def ppf(p):
            a = clip01(p) ** (-1.0 / hexp) - 1.0
            return clip01((1.0 + w_rest * a) ** (-1.0 / th))

        return cdf, ppf

    hfun, hfun_inv = Copula.hfun, Copula.hfun_inv

    def sample(self, n, rng):
        # Marshall-Olkin frailty: V ~ Gamma(1/theta, 1), U_j = (1 + E_j/V)^(-1/theta)
        # computed inside the exponential matrix, the one (n, d) array
        v = rng.gamma(1.0 / self.theta, 1.0, size=n)
        e = rng.exponential(size=(n, self.dim))
        e /= v[:, None]
        e += 1.0
        e **= -1.0 / self.theta
        return clip01(e, out=e)


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

    def _point_grad_logdensity(self, u):
        return [-g for g in self.base._point_grad_logdensity([1.0 - a for a in u])]

    def conditional(self, j, u_rest):
        cdf, ppf = self.base.conditional(j, 1.0 - self._check_j(j, u_rest))
        return (lambda uj: 1.0 - cdf(1.0 - np.asarray(uj, dtype=float)),
                lambda p: 1.0 - ppf(1.0 - np.asarray(p, dtype=float)))

    hfun, hfun_inv = Copula.hfun, Copula.hfun_inv

    def sample(self, n, rng):
        u = self.base.sample(n, rng)
        return np.subtract(1.0, u, out=u)


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
    standard law that the copula's score_law evaluates on floats.
    conditional(j, u_rest) is that part on _scores(u_rest), mapped back to
    levels.  On floats (a Gibbs chain's list of levels, its cdf's level
    and its ppf's p) it takes score_law and level_law, the generator's
    (cdf, ppf) on floats, with no array made; on arrays, the scipy ufuncs.
    Both evaluate the same C functions to the same bits.
    sample_scores draws the scores that sample maps to levels; an elliptical
    JointLossModel and its Gibbs chain use both score-level parts directly.
    """

    def __init__(self, corr, dim=None):
        r = _check_corr(corr, dim)
        super().__init__(r.shape[0])
        self.corr = r
        self._chol = np.linalg.cholesky(r)
        self._rinv = np.linalg.inv(r)
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        # per-coordinate conditioning blocks: b_j = R_{j,-j} R_{-j,-j}^{-1},
        # schur_j = 1 - b_j . R_{-j,j}, kept as float tuples for the
        # per-update loops of score_conditional
        self._b = []
        self._rrest_inv = []
        self._schur = []
        d = self.dim
        for j in range(d):
            rest = [i for i in range(d) if i != j]
            rr_inv = np.linalg.inv(r[np.ix_(rest, rest)])
            b = r[j, rest] @ rr_inv
            self._b.append(tuple(b.tolist()))
            self._rrest_inv.append(tuple(map(tuple, rr_inv.tolist())))
            self._schur.append(float(1.0 - b @ r[rest, j]))

    def score_conditional(self, j, z_rest):
        """(m, s): the score of U_j given the others' scores z_rest, a
        sequence of d - 1 floats, is m + s T.  Dot products add left to
        right; builtin sum is not used, because from Python 3.12 on it
        compensates, which changes the last bits."""
        raise NotImplementedError

    def _check_scores(self, j, z_rest):
        """j and the length of z_rest checked as _check_j checks them, with
        its messages (the length only, not the shape), but z_rest is read as
        it is, with no array made of it."""
        if not 0 <= j < self.dim:
            raise ValueError(f"coordinate index {j} out of range for d={self.dim}")
        try:
            n = len(z_rest)
        except TypeError:
            n = None
        if n != self.dim - 1:
            raise ValueError(f"u_rest must have length {self.dim - 1}")

    def conditional(self, j, u_rest):
        level, score = self.level_law
        law_cdf, law_ppf = self.score_law
        if type(u_rest) is list and all(isinstance(u, float) for u in u_rest):
            z_rest = [score(clip01(u)) for u in u_rest]
        else:
            z_rest = self._scores(self._check_j(j, u_rest))
        m, s = self.score_conditional(j, z_rest)

        def cdf(uj):
            if isinstance(uj, float):
                return law_cdf((score(clip01(uj)) - m) / s)
            return self._cond_cdf((self._scores(uj) - m) / s)

        def ppf(p):
            if isinstance(p, float):
                return clip01(level(m + s * law_ppf(clip01(p))))
            return clip01(self._levels(m + s * self._cond_ppf(clip01(p))))

        return cdf, ppf

    def sample_scores(self, n, rng):
        """n rows of scores: correlated standard normals (the t copula
        divides them by its radial factor).  The normals are drawn
        SCORE_BLOCK rows at a time and each block's product is written into
        its rows of the one output: the same stream and the same bits as
        rng.standard_normal((n, d)) @ chol.T, with no second (n, d) array.
        The last block takes the rest, SCORE_BLOCK + 1 to 2 SCORE_BLOCK rows
        (all n when n is at most that): a one-row block would go through
        numpy's matrix-vector product, whose last bits can differ."""
        z = np.empty((n, self.dim))
        starts = range(0, max(n - SCORE_BLOCK, 1), SCORE_BLOCK)
        for i, j in zip(starts, [*starts[1:], n]):
            np.matmul(rng.standard_normal((j - i, self.dim)), self._chol.T, out=z[i:j])
        return z

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

    # T is standard normal: score_law on floats, _cond_cdf and _cond_ppf
    # (the ufuncs) on arrays; the generator is standard normal too
    score_law = level_law = (_C_NDTR, _C_NDTRI)
    _cond_cdf = special.ndtr
    _cond_ppf = special.ndtri

    def score_conditional(self, j, z_rest):
        self._check_scores(j, z_rest)
        m = 0.0
        for b_i, z_i in zip(self._b[j], z_rest):
            m += b_i * z_i
        return m, math.sqrt(self._schur[j])

    hfun, hfun_inv = Copula.hfun, Copula.hfun_inv


class StudentTCopula(_EllipticalCopula):
    def __init__(self, nu: float, corr, dim=None):
        super().__init__(corr, dim)
        if not 0.0 < nu < math.inf:
            raise ValueError("StudentT copula nu must be finite and > 0")
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
        # T is t with nu + d - 1 degrees of freedom: score_law on floats,
        # _cond_cdf and _cond_ppf (the ufuncs) on arrays; the generator is
        # t with nu
        self._df = nu + d - 1.0
        self.score_law = (functools.partial(_C_STDTR, self._df), functools.partial(_C_STDTRIT, self._df))
        self.level_law = (functools.partial(_C_STDTR, nu), functools.partial(_C_STDTRIT, nu))
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
        # location m = b_j . z_rest; the scale grows with the rest's
        # Mahalanobis norm q_rest = z_rest . (R_{-j,-j}^{-1} z_rest)
        self._check_scores(j, z_rest)
        m = q_rest = 0.0
        for b_i, row, z_i in zip(self._b[j], self._rrest_inv[j], z_rest):
            m += b_i * z_i
            t = 0.0
            for r_k, z_k in zip(row, z_rest):
                t += r_k * z_k
            q_rest += z_i * t
        return m, math.sqrt((self.nu + q_rest) / self._df * self._schur[j])

    hfun, hfun_inv = Copula.hfun, Copula.hfun_inv

    def sample_scores(self, n, rng):
        z = super().sample_scores(n, rng)
        w = rng.chisquare(self.nu, size=n)
        w /= self.nu
        z /= np.sqrt(w, out=w)[:, None]
        return z

