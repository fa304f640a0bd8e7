"""Joint loss models: marginals coupled by a copula (Sklar's theorem).

    f_X(x) = c(F_1(x_1), ..., F_d(x_d)) * f_1(x_1) * ... * f_d(x_d)

The model exposes the joint log-density, its gradient, an i.i.d. sampler
and, through full_conditional, the full conditional cdf/quantile pair the
Gibbs engine draws from:

    F_{X_j | X_-j = x_-j}(x) = C_{j|-j}(F_j(x) | F_-j(x_-j)),

with the copula conditioned once on F_-j(x_-j) by Copula.conditional.
"""

import numpy as np

from .copulas import Copula, Independence, StudentTCopula, SurvivalClayton, clip01, copula_from_dict
from .marginals import GPD, Marginal, Pareto, StudentT, marginal_from_dict


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
        self.support_class = (
            "pure-losses"
            if all(m.support == "nonnegative-half-line" for m in marginals)
            else "pnl"
        )

    # -- density -------------------------------------------------------------
    # Each takes a point of shape (d,) or a batch of shape (K, d); a batch
    # gives one value (or gradient row) per row.  Coordinates are selected
    # on the first axis of the transpose: x.T[idx] costs a fifth of
    # x[..., idx] on a point.

    def _points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"x must be a {self.d}-vector or a (K, {self.d}) batch")
        return x

    def in_support(self, x):
        """Whether the point, or each row of the batch, lies in the support."""
        x = np.asarray(x, dtype=float)
        ok = None
        for m, idx in self._groups:
            inside = m.in_support(x.T[idx]).all(axis=0)
            ok = inside if ok is None else ok & inside
        return ok

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
        lp = np.empty(x.shape)
        u = np.empty(x.shape)
        for m, idx in self._groups:
            xg = x.T[idx]
            lp.T[idx] = m.logpdf(xg)
            u.T[idx] = m.cdf(xg)
        # added left to right, coordinate by coordinate: from d = 8 on,
        # np.sum adds in another order and changes the last bits
        total = 0.0
        for lp_j in lp.T:
            total = total + lp_j
        # clip01 keeps u interior, so the copula's argument check is skipped
        lc = self.copula._logdensity(clip01(u))
        return np.where(np.isfinite(total), total + lc, -np.inf)[()]

    def grad_logpdf(self, x):
        """Chain rule: grad_j = (d_j log c)(F(x)) f_j(x_j) + dlogpdf_j(x_j)."""
        x = self._points(x)
        if not self.in_support(x).all():
            raise ValueError("gradient requested outside the support")
        u = np.empty(x.shape)
        fx = np.empty(x.shape)
        dm = np.empty(x.shape)
        for m, idx in self._groups:
            xg = x.T[idx]
            u.T[idx] = m.cdf(xg)
            fx.T[idx] = m.pdf(xg)
            dm.T[idx] = m._dlogpdf(xg)
        gc = self.copula._grad_logdensity(clip01(u))
        return gc * fx + dm

    # -- sampling ------------------------------------------------------------

    def sample(self, n: int, rng) -> np.ndarray:
        """n i.i.d. draws: copula sample, then marginal quantiles coordinatewise."""
        if n < 1:
            raise ValueError("n must be >= 1")
        u = self.copula.sample(n, rng)
        x = np.empty_like(u)
        for j, m in enumerate(self.marginals):
            x[:, j] = m.quantile(u[:, j])
        return x

    # -- full conditionals ---------------------------------------------------

    def full_conditional(self, j: int, u_rest):
        """(cdf, quantile) of X_j given the other coordinates, which enter
        through their levels u_rest = F_-j(x_-j) (a Gibbs chain carries
        them).  p goes to the copula's ppf unclamped: the ppf clamps it, and
        a clamp before the survival Clayton's mirror 1 - p would move the
        last bit of draws near 1."""
        cdf, ppf = self.copula.conditional(j, u_rest)
        m = self.marginals[j]
        return (lambda x: cdf(clip01(m.cdf(x))),
                lambda p: m.quantile(clip01(ppf(p))))


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
