"""Joint loss models: marginals coupled by a copula (Sklar's theorem).

    f_X(x) = c(F_1(x_1), ..., F_d(x_d)) * f_1(x_1) * ... * f_d(x_d)

The model exposes the joint log-density, its gradient, an i.i.d. sampler
and, through full_conditional, the full conditional cdf/quantile pair the
Gibbs engine draws from.  The sampler and the full conditionals take one
of two routes, and one predicate, JointLossModel.elliptical(), chooses:

- The copula route, for every model that is not elliptical.  A draw
  maps copula levels through the marginal quantiles, and the full
  conditional is

      F_{X_j | X_-j = x_-j}(x) = C_{j|-j}(F_j(x) | F_-j(x_-j)),

  with the copula conditioned once on the levels F_-j(x_-j) by
  Copula.conditional.
- The score route, for an elliptical model: a Gaussian copula with normal
  margins, or a t copula with t margins of the copula's nu.  Then
  X = mu + sigma Z with scores Z that the copula draws and conditions on
  directly (sample_scores, score_conditional), so the cdf -> quantile
  round trip of the copula route, which returns the same numbers up to
  rounding, is skipped.  Scores are clipped to [q_lo, q_hi], the image of
  the copula route's level clamp [U_EPS, 1 - U_EPS].

A Gibbs chain carries one state per coordinate, which coordinate_state
defines: the level F_j(x_j) on the copula route, the score on the score
route.
"""

from typing import NamedTuple

import numpy as np

from .copulas import (
    U_EPS,
    Copula,
    GaussianCopula,
    Independence,
    StudentTCopula,
    SurvivalClayton,
    clip01,
    copula_from_dict,
)
from .events import _left_to_right_sum
from .marginals import GPD, Marginal, Normal, Pareto, StudentT, marginal_from_dict


def _same_distribution(a: Marginal, b: Marginal) -> bool:
    """One class and equal parameters.  A marginal whose attributes cannot
    be compared equals only itself."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    try:
        return bool(vars(a) == vars(b))
    except (TypeError, ValueError):
        return False


def _group_coordinates(marginals) -> tuple:
    """(marginal, coordinate indices) per distinct marginal, in order of
    first appearance: the array methods then run once per group."""
    groups = []  # [marginal, [indices]]
    for j, m in enumerate(marginals):
        for g in groups:
            if _same_distribution(g[0], m):
                g[1].append(j)
                break
        else:
            groups.append([m, [j]])
    return tuple((m, np.array(idx)) for m, idx in groups)


class Elliptical(NamedTuple):
    """What JointLossModel.elliptical() returns: X = mu + sigma Z, where Z
    has correlation corr and the standard generator's margins; q_lo and
    q_hi are the generator's quantiles at U_EPS and 1 - U_EPS."""

    generator: Marginal
    corr: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    q_lo: float
    q_hi: float


def _elliptical(marginals, copula):
    if isinstance(copula, GaussianCopula) and all(isinstance(m, Normal) for m in marginals):
        generator = Normal()
    elif isinstance(copula, StudentTCopula) and all(
        isinstance(m, StudentT) and m.nu == copula.nu for m in marginals
    ):
        generator = StudentT(copula.nu)
    else:
        return None
    return Elliptical(
        generator,
        copula.corr,
        np.array([m.mu for m in marginals]),
        np.array([m.sigma for m in marginals]),
        float(generator.quantile(U_EPS)),
        float(generator.quantile(1.0 - U_EPS)),
    )


class JointLossModel:
    def __init__(self, marginals, copula: Copula):
        marginals = list(marginals)
        if len(marginals) != copula.dim:
            raise ValueError("copula dimension must equal the number of marginals")
        if len(marginals) < 2:
            raise ValueError("need at least two marginals")
        self.marginals = marginals
        self.copula = copula
        self.d = copula.dim
        self._groups = _group_coordinates(marginals)
        self._elliptical = _elliptical(marginals, copula)
        self.support_class = (
            "pure-losses"
            if all(m.support == "nonnegative-half-line" for m in marginals)
            else "pnl"
        )

    # -- density -------------------------------------------------------------
    # Each takes a point of shape (d,) or a batch of shape (K, d); a batch
    # gives one value (or gradient row) per row.  A model of one group
    # evaluates on x itself; otherwise coordinates are selected on the first
    # axis of the transpose: x.T[idx] costs a fifth of x[..., idx] on a point.

    def _points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"x must be a {self.d}-vector or a (K, {self.d}) batch")
        return x

    def in_support(self, x):
        """Whether the point, or each row of the batch, lies in the support."""
        x = np.asarray(x, dtype=float)
        if len(self._groups) == 1:
            return self._groups[0][0].in_support(x).all(axis=-1)
        ok = None
        for m, idx in self._groups:
            inside = m.in_support(x.T[idx]).all(axis=0)
            ok = inside if ok is None else ok & inside
        return ok

    def _terms(self, x, grad):
        """(logpdf, cdf, dlogpdf) of every coordinate of x, which lies in the
        support, with None for dlogpdf unless grad: one Marginal._terms call
        per group."""
        if len(self._groups) == 1:
            return self._groups[0][0]._terms(x, grad)
        lp, u = np.empty(x.shape), np.empty(x.shape)
        dm = np.empty(x.shape) if grad else None
        for m, idx in self._groups:
            lp.T[idx], u.T[idx], dm_g = m._terms(x.T[idx], grad)
            if grad:
                dm.T[idx] = dm_g
        return lp, u, dm

    def logpdf(self, x):
        """Joint log-density: a float for a point, an array for a batch;
        -inf off the support."""
        x = self._points(x)
        ok = self.in_support(x)
        if x.ndim == 1:
            return self._logpdf_on_support(x) if ok else -np.inf
        out = np.full(x.shape[0], -np.inf)
        out[ok] = self._logpdf_on_support(x[ok])
        return out

    def _logpdf_on_support(self, x):
        lp, u, _ = self._terms(x, grad=False)
        # from d = 8 on, np.sum adds in another order and changes the last bits
        total = _left_to_right_sum(lp.T)
        # clip01 keeps u interior, so the copula's argument check is skipped
        lc = self.copula._logdensity(clip01(u))
        return np.where(np.isfinite(total), total + lc, -np.inf)[()]

    def grad_logpdf(self, x):
        """Chain rule: grad_j = (d_j log c)(F(x)) f_j(x_j) + dlogpdf_j(x_j)."""
        x = self._points(x)
        ok = self.in_support(x)
        # a point's answer is a numpy bool, whose .all() costs a reduction
        if not (ok if x.ndim == 1 else ok.all()):
            raise ValueError("gradient requested outside the support")
        lp, u, dm = self._terms(x, grad=True)
        # f_j = exp(logpdf_j), which is what Marginal.pdf computes
        gc = self.copula._grad_logdensity(clip01(u))
        return gc * np.exp(lp) + dm

    def elliptical(self):
        """The model as mu + sigma Z (an Elliptical) when it is elliptical:
        a Gaussian copula with normal margins, or a t copula with t margins
        of the copula's nu.  None otherwise.  The oracle, sample,
        full_conditional and coordinate_state ask this predicate alone."""
        return self._elliptical

    # -- sampling ------------------------------------------------------------

    def sample(self, n: int, rng) -> np.ndarray:
        """n i.i.d. draws: copula sample, then marginal quantiles
        coordinatewise; on the score route mu + sigma * the copula's scores,
        from the same random stream."""
        if n < 1:
            raise ValueError("n must be >= 1")
        ell = self.elliptical()
        if ell is not None:
            x = self.copula.sample_scores(n, rng)
            np.clip(x, ell.q_lo, ell.q_hi, out=x)
            x *= ell.sigma
            x += ell.mu
            return x
        u = self.copula.sample(n, rng)
        x = np.empty_like(u)
        for j, m in enumerate(self.marginals):
            x[:, j] = m.quantile(u[:, j])
        return x

    # -- full conditionals ---------------------------------------------------

    def coordinate_state(self, j: int, xj: float) -> float:
        """What a Gibbs chain carries for coordinate j at the float x_j: the
        level F_j(x_j) on the copula route, the score (x_j - mu_j) / sigma_j
        on the score route, each clamped."""
        ell = self.elliptical()
        if ell is None:
            return clip01(float(self.marginals[j].cdf(xj)))
        m = self.marginals[j]
        return min(max((xj - m.mu) / m.sigma, ell.q_lo), ell.q_hi)

    def full_conditional(self, j: int, rest):
        """(cdf, quantile) of X_j given the other coordinates, which enter
        through their coordinate_state values rest (a Gibbs chain carries
        them).  On the copula route p goes to the copula's ppf unclamped:
        the ppf clamps it, and a clamp before the survival Clayton's mirror
        1 - p would move the last bit of draws near 1.  On the score route
        the two take a float and return one."""
        ell = self.elliptical()
        m = self.marginals[j]
        if ell is None:
            cdf, ppf = self.copula.conditional(j, rest)
            return (lambda x: cdf(clip01(m.cdf(x))),
                    lambda p: m.quantile(clip01(ppf(p))))
        loc, scale, cdf, ppf = self.copula.score_conditional(j, rest)
        mu, sigma, q_lo, q_hi = m.mu, m.sigma, ell.q_lo, ell.q_hi
        # the cdf reads x's state as coordinate_state computes it, inline
        return (
            lambda x: cdf((min(max((x - mu) / sigma, q_lo), q_hi) - loc) / scale),
            lambda p: mu + sigma * min(max(loc + scale * ppf(min(max(p, U_EPS), 1.0 - U_EPS)), q_lo), q_hi),
        )


# -- presets ------------------------------------------------------------------


def _banded_corr(d: int) -> np.ndarray:
    r = np.fromfunction(lambda i, j: np.abs(i - j) / d, (d, d))
    np.fill_diagonal(r, 1.0)
    return r


def equicorrelation(d: int, rho: float) -> np.ndarray:
    r = np.full((d, d), rho)
    np.fill_diagonal(r, 1.0)
    return r


def preset(name: str) -> JointLossModel:
    """Named models used throughout the experiments.

    M1: three GPD(0.3, 1) losses, survival Clayton theta=2 (tau = 0.5).
    M2: trivariate Student t, nu=5, correlations |i-j|/d.
    M3: two Pareto losses fitted to insurance claims, survival Clayton
        theta=0.512.
    """
    key = name.strip().upper()
    if key == "M1":
        return JointLossModel([GPD(0.3, 1.0) for _ in range(3)], SurvivalClayton(2.0, 3))
    if key == "M2":
        return student_t_model(5.0, _banded_corr(3))
    if key == "M3":
        return JointLossModel(
            [Pareto(14036.0, 1.122), Pareto(14219.0, 2.118)],
            SurvivalClayton(0.512, 2),
        )
    raise ValueError(f"unknown preset {name!r}; expected M1, M2 or M3")


PRESET_NAMES = ("M1", "M2", "M3")


def student_t_model(nu: float, corr, loc=None, scale=None) -> JointLossModel:
    """Multivariate Student t as t copula plus t marginals with common nu."""
    corr = np.asarray(corr, dtype=float)
    d = corr.shape[0]
    loc = np.zeros(d) if loc is None else np.asarray(loc, dtype=float)
    scale = np.ones(d) if scale is None else np.asarray(scale, dtype=float)
    margs = [StudentT(nu, loc[j], scale[j]) for j in range(d)]
    return JointLossModel(margs, StudentTCopula(nu, corr))


def model_from_dict(cfg: dict) -> JointLossModel:
    """Schema: {"marginals": [{"kind", "params"}, ...],
    "copula": {"kind", ...}} — see the README for examples."""
    margs = [marginal_from_dict(m) for m in cfg["marginals"]]
    cop = copula_from_dict(cfg["copula"], len(margs))
    return JointLossModel(margs, cop)


def load_model(spec) -> JointLossModel:
    """Accept a preset name, a config dict, or a ready model."""
    if isinstance(spec, JointLossModel):
        return spec
    if isinstance(spec, str):
        return preset(spec)
    if isinstance(spec, dict):
        return model_from_dict(spec)
    raise TypeError(f"cannot build a model from {type(spec).__name__}")
