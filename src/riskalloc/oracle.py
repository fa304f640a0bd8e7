"""Closed-form allocations for elliptical joint models.

For an elliptical loss vector, the conditional mean given any event that
depends only on the portfolio sum S is linear in S, so the allocation of
a sum-based crisis event splits the sum's risk measure in proportion to
(Sigma 1)_j.  Used as the bias reference when comparing engines.
"""

from __future__ import annotations

import numpy as np

from .events import CrisisEventSpec
from .marginals import Normal, StudentT
from .models import JointLossModel

__all__ = ["standard_es", "standard_measure", "elliptical_oracle"]


def standard_es(generator, level: float) -> float:
    """Expected shortfall of a standard normal or standard t variable."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"es level must lie in (0, 1), got {level}")
    q = generator.quantile(level)
    if isinstance(generator, StudentT):
        nu = generator.nu
        if nu <= 1.0:
            raise ValueError(f"t expected shortfall needs nu > 1, got nu={nu}")
        # int_q^inf z f(z) dz = f(q) (nu + q^2) / (nu - 1)
        return generator.pdf(q) * (nu + q * q) / ((nu - 1.0) * (1.0 - level))
    if isinstance(generator, Normal):
        return generator.pdf(q) / (1.0 - level)
    raise TypeError(f"no closed-form expected shortfall for {type(generator).__name__}")


def standard_measure(generator, kind: str, levels) -> float:
    """VaR/RVaR/ES of a standard normal or t generator, by event kind."""
    spec = CrisisEventSpec(kind, tuple(float(v) for v in levels))
    if spec.kind == "var":
        return float(generator.quantile(spec.levels[0]))
    if spec.kind == "es":
        return standard_es(generator, spec.levels[0])
    a, b = spec.levels
    upper = 0.0 if b >= 1.0 else (1.0 - b) * standard_es(generator, b)
    return ((1.0 - a) * standard_es(generator, a) - upper) / (b - a)


def elliptical_oracle(model: JointLossModel, kind: str, levels) -> np.ndarray:
    """Exact allocation vector for a sum event on an elliptical model.

    A_j = mu_j + (Sigma 1)_j / sqrt(1' Sigma 1) * rho_std, where rho_std is
    the standard generator's VaR/RVaR/ES at the event's levels and
    Sigma = diag(sigma) . R . diag(sigma).
    """
    ell = model.elliptical()
    if ell is None:
        raise ValueError(
            "closed-form allocations need an elliptical model: a gaussian copula "
            "with normal margins, or a t copula with t margins sharing its "
            "degrees of freedom"
        )
    sigma_mat = ell.corr * np.outer(ell.sigma, ell.sigma)
    row = sigma_mat.sum(axis=1)
    sigma_s = float(np.sqrt(row.sum()))
    return ell.mu + row / sigma_s * standard_measure(ell.generator, kind, levels)
