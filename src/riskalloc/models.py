"""Joint loss models: marginals coupled by a copula (Sklar's theorem).

    f_X(x) = c(F_1(x_1), ..., F_d(x_d)) * f_1(x_1) * ... * f_d(x_d)

The model exposes the joint log-density, its gradient and an i.i.d.
sampler.  The sampler, and the full conditionals the Gibbs engine draws
from (gibbs.py), take one of two routes, and one predicate,
JointLossModel.elliptical(), chooses:

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

The gradient at one point, which each leapfrog half-kick of the HMC chain
takes, is computed on Python floats (_point_grad): every arithmetic step
and clamp on floats, and each special function one numpy ufunc call over
a group's coordinates (Marginal._point_terms,
Copula._point_grad_logdensity), so that it has the bits of a one-row
batch.  A batch, and logpdf at a point, stay on numpy arrays.
"""

import inspect
from typing import NamedTuple

import numpy as np

from .copulas import (
    U_EPS,
    Clayton,
    Copula,
    GaussianCopula,
    Independence,
    StudentTCopula,
    SurvivalClayton,
    clip01,
)
from .events import _left_to_right_sum
from .marginals import GPD, Marginal, Normal, Pareto, StudentT


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
        self._support_mins = [m.support_min for m in marginals]
        # pure losses, every margin on x >= 0: the one support fact that the
        # event and the engine rules read
        self.nonnegative = all(lo == 0.0 for lo in self._support_mins)

    # -- density -------------------------------------------------------------
    # Each takes a point of shape (d,) or a batch of shape (K, d); a batch
    # gives one value (or gradient row) per row.  A model of one group
    # evaluates on x itself; otherwise coordinates are selected on the first
    # axis of the transpose: x.T[idx] costs a fifth of x[..., idx] on a point.
    # A point's gradient is computed on floats (_point_grad).

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
        if x.ndim == 1:
            return self._point_grad(x.tolist())
        if not self.in_support(x).all():
            raise ValueError("gradient requested outside the support")
        lp, u, dm = self._terms(x, grad=True)
        # f_j = exp(logpdf_j), which is what Marginal.pdf computes
        gc = self.copula._grad_logdensity(clip01(u))
        return gc * np.exp(lp) + dm

    def _point_grad(self, x):
        """grad_logpdf at one point x, a list of floats, with the bits of a
        one-row batch: each group's Marginal._point_terms and the copula's
        _point_grad_logdensity return lists of floats, which the chain rule
        multiplies and adds as floats, with one np.exp call."""
        for v, lo in zip(x, self._support_mins):
            if not v >= lo:  # NaN included
                raise ValueError("gradient requested outside the support")
        if len(self._groups) == 1:
            lp, u, dm = self._groups[0][0]._point_terms(x, True)
        else:
            lp, u, dm = [0.0] * self.d, [0.0] * self.d, [0.0] * self.d
            for m, idx in self._groups:
                idx = idx.tolist()
                for out, values in zip((lp, u, dm), m._point_terms([x[i] for i in idx], True)):
                    for i, v in zip(idx, values):
                        out[i] = v
        gc = self.copula._point_grad_logdensity(clip01(u))
        return np.array([g * f + m for g, f, m in zip(gc, np.exp(lp).tolist(), dm)])

    def elliptical(self):
        """The model as mu + sigma Z (an Elliptical) when it is elliptical:
        a Gaussian copula with normal margins, or a t copula with t margins
        of the copula's nu.  None otherwise.  The oracle, sample and the
        Gibbs chain ask this predicate alone."""
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
        # each column's quantiles are written over its levels
        x = self.copula.sample(n, rng)
        for j, m in enumerate(self.marginals):
            x[:, j] = m.quantile(x[:, j])
        return x


# -- presets and the model spec ------------------------------------------------


def _banded_corr(d: int) -> np.ndarray:
    r = np.fromfunction(lambda i, j: np.abs(i - j) / d, (d, d))
    np.fill_diagonal(r, 1.0)
    return r


def equicorrelation(d: int, rho: float) -> np.ndarray:
    r = np.full((d, d), rho)
    np.fill_diagonal(r, 1.0)
    return r


_PRESETS = {
    "M1": lambda: JointLossModel([GPD(0.3, 1.0) for _ in range(3)], SurvivalClayton(2.0, 3)),
    "M2": lambda: student_t_model(5.0, _banded_corr(3)),
    "M3": lambda: JointLossModel(
        [Pareto(14036.0, 1.122), Pareto(14219.0, 2.118)],
        SurvivalClayton(0.512, 2),
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> JointLossModel:
    """Named models used throughout the experiments.

    M1: three GPD(0.3, 1) losses, survival Clayton theta=2 (tau = 0.5).
    M2: trivariate Student t, nu=5, correlations |i-j|/d.
    M3: two Pareto losses fitted to insurance claims, survival Clayton
        theta=0.512.
    """
    build = _PRESETS.get(name.strip().upper())
    if build is None:
        *rest, last = PRESET_NAMES
        raise ValueError(f"unknown preset {name!r}; expected {', '.join(rest)} or {last}")
    return build()


def student_t_model(nu: float, corr, loc=None, scale=None) -> JointLossModel:
    """Multivariate Student t as t copula plus t marginals with common nu."""
    corr = np.asarray(corr, dtype=float)
    d = corr.shape[0]
    loc = np.zeros(d) if loc is None else np.asarray(loc, dtype=float)
    scale = np.ones(d) if scale is None else np.asarray(scale, dtype=float)
    margs = [StudentT(nu, loc[j], scale[j]) for j in range(d)]
    return JointLossModel(margs, StudentTCopula(nu, corr))


def json_count(value):
    """A count as a JSON reader takes it: an integral float (1e5) as an int,
    any other value as it is, for events.count() to check."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


_JSON_KINDS = {
    "an object": dict,
    "a list": (list, tuple),
    "a number": (int, float, np.integer, np.floating),
    "a preset name or an object": (str, dict),
}


def json_field(value, name: str, kind: str, subject: str):
    """value, when it is of the JSON kind (a _JSON_KINDS key) that the field
    name of subject ("config" or "model spec") takes; else a ValueError
    naming the field.  A bool is of no kind, as events.count() takes none."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ValueError(f"the {subject} field {name!r} must be {kind}, got {type(value).__name__}")
    return value


def json_numbers(value, name: str, subject: str) -> tuple:
    """The list field name of subject, each of its items a number."""
    items = json_field(value, name, "a list", subject)
    return tuple(json_field(v, name, "a number", subject) for v in items)


# marginal kind -> class, whose constructor takes a marginal's "params" in order
MARGINAL_KINDS = {"gpd": GPD, "pareto": Pareto, "studentt": StudentT, "normal": Normal}
# copula kind -> (class, the fields its constructor takes by name, before the dimension)
COPULA_KINDS = {
    "independence": (Independence, ()),
    "clayton": (Clayton, ("theta",)),
    "survivalclayton": (SurvivalClayton, ("theta",)),
    "gaussian": (GaussianCopula, ("corr",)),
    "studentt": (StudentTCopula, ("nu", "corr")),
}


def _known_keys(cfg: dict, keys, where: str) -> None:
    """A ValueError naming every key of cfg, the object that where names,
    that keys does not list."""
    unknown = [k for k in cfg if k not in keys]
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}; it takes {list(keys)}")


def _kind(cfg: dict, kinds: dict, what: str):
    """(kind, its kinds entry) for cfg's "kind", in any case."""
    kind = str(cfg["kind"]).lower()
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {cfg['kind']!r}; expected one of {sorted(kinds)}")
    return kind, kinds[kind]


def _marginal(item, i: int) -> Marginal:
    """The marginal of item, the spec's marginals[i], whose params fill its
    constructor's required arguments and at most all of them."""
    cfg = json_field(item, f"marginals[{i}]", "an object", "model spec")
    kind, cls = _kind(cfg, MARGINAL_KINDS, "marginal")
    _known_keys(cfg, ("kind", "params"), f"the model spec field 'marginals[{i}]' of kind {kind!r}")
    params = json_numbers(cfg["params"], "params", "model spec")
    args = inspect.signature(cls).parameters.values()
    if not sum(a.default is a.empty for a in args) <= len(params) <= len(args):
        raise ValueError(
            f"the model spec field 'params' of a {kind} marginal takes "
            f"({', '.join(a.name for a in args)}), got {len(params)} "
            f"number{'' if len(params) == 1 else 's'}"
        )
    return cls(*[float(p) for p in params])


def _copula_field(cfg: dict, key: str):
    """corr as a matrix of numbers, any other field as a number."""
    if key != "corr":
        return float(json_field(cfg[key], key, "a number", "model spec"))
    rows = json_field(cfg[key], key, "a list", "model spec")
    return np.array([json_numbers(r, key, "model spec") for r in rows], dtype=float)


def model_from_dict(cfg: dict) -> JointLossModel:
    """Schema: {"marginals": [{"kind", "params"}, ...], "copula": {"kind", ...}}
    with the kinds of MARGINAL_KINDS and COPULA_KINDS; see the README.  A
    missing or unknown key, or a field of another type, is a ValueError
    that names it and where it sits."""
    if not isinstance(cfg, dict):
        raise ValueError(f"the model spec must be an object, got {type(cfg).__name__}")
    _known_keys(cfg, ("marginals", "copula"), "the model spec")
    try:
        items = json_field(cfg["marginals"], "marginals", "a list", "model spec")
        margs = [_marginal(m, i) for i, m in enumerate(items)]
        cop = json_field(cfg["copula"], "copula", "an object", "model spec")
        kind, (cls, keys) = _kind(cop, COPULA_KINDS, "copula")
        _known_keys(cop, ("kind", *keys), f"the model spec field 'copula' of kind {kind!r}")
        cop = cls(*[_copula_field(cop, key) for key in keys], len(margs))
    except KeyError as err:
        raise ValueError(f"the model spec is missing the key {err.args[0]!r}") from None
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
