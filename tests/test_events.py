import numpy as np
import pytest

from riskalloc.events import (
    EQUALITY_RTOL,
    ConcreteCrisisEvent,
    CrisisEventSpec,
    EventTarget,
    HalfSpaces,
    LinearConstraint,
    ReducedVarTarget,
    estimate_event,
    hit_time,
    reflect,
    standardize_constraints,
)
from riskalloc.models import preset


def ladder_presample(n=1000, d=2):
    # rows with sums 1..n, split evenly across coordinates
    s = np.arange(1.0, n + 1.0)
    return np.tile((s / d)[:, None], (1, d))


def test_linear_constraint_validation():
    with pytest.raises(ValueError):
        LinearConstraint(np.zeros(3), 1.0)
    c = LinearConstraint([1.0, 0.0], 2.0)
    assert c.slack([3.0, 5.0]) == 1.0


def test_spec_validation():
    CrisisEventSpec("es", (0.99,))
    CrisisEventSpec("rvar", (0.975, 1.0))
    with pytest.raises(ValueError):
        CrisisEventSpec("cvar", (0.9,))
    with pytest.raises(ValueError):
        CrisisEventSpec("var", (1.2,))
    with pytest.raises(ValueError):
        CrisisEventSpec("rvar", (0.99, 0.975))
    with pytest.raises(ValueError):
        CrisisEventSpec("es", (0.9,), delta=0.01)
    with pytest.raises(ValueError):
        CrisisEventSpec("var", (0.9,), delta=-0.1)


def test_es_event_on_ladder():
    ev = estimate_event(CrisisEventSpec("es", (0.99,)), ladder_presample(), "pnl")
    assert len(ev.constraints) == 1
    assert ev.thresholds["v"] == 990.0
    assert ev.contains_rows([[500.0, 500.0], [400.0, 500.0]]).tolist() == [True, False]


def test_rvar_event_thresholds_ordered():
    ev = estimate_event(
        CrisisEventSpec("rvar", (0.975, 0.99)), ladder_presample(), "pure-losses"
    )
    assert ev.thresholds["v1"] < ev.thresholds["v2"]
    # two sum constraints plus d coordinate constraints
    assert len(ev.constraints) == 4
    assert ev.contains_rows([[490.0, 490.0], [-1.0, 986.0]]).tolist() == [True, False]


def test_var_band_event_on_ladder():
    ev = estimate_event(
        CrisisEventSpec("var", (0.99,), delta=0.001), ladder_presample(), "pnl"
    )
    assert ev.sum_equality is None
    assert ev.thresholds == {"v_star": 990.0, "v_lo": 989.0, "v_hi": 991.0}
    assert ev.contains_rows([[495.0, 495.5], [495.0, 497.0]]).tolist() == [True, False]


def test_var_exact_event_on_ladder():
    ev = estimate_event(CrisisEventSpec("var", (0.99,)), ladder_presample(), "pnl")
    assert ev.sum_equality == 990.0
    assert len(ev.constraints) == 0
    rows = [[495.0, 495.0], [495.0, 495.1],
            # relative tolerance on the equality
            [495.0, 495.0 + 1e-7], [495.0, 495.0 + 1e-5]]
    assert ev.contains_rows(rows).tolist() == [True, False, True, False]


def test_estimate_event_errors():
    with pytest.raises(ValueError):
        estimate_event(CrisisEventSpec("es", (0.99,)), ladder_presample(50), "pnl")
    with pytest.raises(ValueError):
        estimate_event(
            CrisisEventSpec("var", (0.995,), delta=0.01), ladder_presample(), "pnl"
        )
    with pytest.raises(ValueError):
        estimate_event(CrisisEventSpec("es", (0.99,)), ladder_presample(), "gains")


def contains_point(ev, x) -> bool:
    """Membership of one point, constraint by constraint: the scalar
    reference contains_rows must reproduce."""
    x = np.asarray(x, dtype=float)
    for c in ev.constraints:
        if float(c.h @ x) < c.v:
            return False
    if ev.sum_equality is not None:
        v = ev.sum_equality
        if abs(float(x.sum()) - v) > EQUALITY_RTOL * max(1.0, abs(v)):
            return False
    return True


def test_contains_rows_matches_scalar():
    ev = estimate_event(
        CrisisEventSpec("rvar", (0.9, 0.99)), ladder_presample(), "pure-losses"
    )
    rng = np.random.default_rng(0)
    rows = rng.uniform(-10.0, 600.0, size=(200, 2))
    mask = ev.contains_rows(rows)
    for r, flag in zip(rows, mask):
        assert contains_point(ev, r) == flag


@pytest.mark.parametrize(
    "spec,prob",
    [
        (CrisisEventSpec("es", (0.99,)), 0.01),
        (CrisisEventSpec("rvar", (0.975, 0.99)), 0.015),
        (CrisisEventSpec("var", (0.99,), delta=0.001), 0.002),
    ],
)
def test_presample_fraction_matches_nominal_probability(spec, prob):
    m = preset("M1")
    x = m.sample(100_000, np.random.default_rng(1))
    ev = estimate_event(spec, x, m.support_class)
    frac = ev.contains_rows(x).mean()
    assert abs(frac - prob) <= 2.0 / np.sqrt(x.shape[0])


def test_event_json_roundtrip():
    ev = estimate_event(
        CrisisEventSpec("var", (0.99,), delta=0.001), ladder_presample(), "pure-losses"
    )
    d = ev.to_json_dict()
    assert d["kind"] == "var"
    assert d["levels"] == [0.99]
    assert d["thresholds"]["v_star"] == 990.0
    assert len(d["constraints"]) == 4
    import json

    json.dumps(d)  # must be serializable as-is


def test_hit_time_examples():
    c = HalfSpaces([LinearConstraint([1.0, 0.0], 0.0)])
    assert hit_time(np.array([1.0, 1.0]), np.array([-2.0, 0.0]), 1.0, c)[0] == 0.5
    # moving away from the hyperplane
    assert hit_time(np.array([1.0, 1.0]), np.array([2.0, 0.0]), 1.0, c)[0] == np.inf
    assert hit_time(np.array([1.0, 1.0]), np.array([-2.0, 0.0]), 0.0, c)[0] == np.inf
    # motion parallel to the boundary
    assert hit_time(np.array([1.0, 1.0]), np.array([0.0, 3.0]), 1.0, c)[0] == np.inf
    # too far to reach within one step
    assert hit_time(np.array([5.0, 0.0]), np.array([-2.0, 0.0]), 1.0, c)[0] == np.inf


def test_hit_time_rows_and_constraints_at_once():
    box = HalfSpaces([
        LinearConstraint([1.0, 0.0], 0.0),
        LinearConstraint([-1.0, 0.0], -1.0),
        LinearConstraint([0.0, 1.0], 0.0),
    ])
    x = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
    p = np.array([[-1.0, 0.0], [2.0, -2.0], [0.0, 0.0]])
    t = hit_time(x, p, np.array([1.0, 1.0, 1.0]), box)
    assert t.shape == (3, 3)
    assert np.array_equal(t[0], [0.5, np.inf, np.inf])
    assert np.array_equal(t[1], [np.inf, 0.25, 0.25])
    assert np.all(t[2] == np.inf)
    # each row's entry is the one-row call's, bit for bit
    for k in range(3):
        assert np.array_equal(hit_time(x[k], p[k], 1.0, box), t[k])


def test_reflect_examples():
    c = LinearConstraint([1.0, 0.0], 0.0)
    x_r, p_r = reflect(np.array([-0.4, 1.0]), np.array([-2.0, 3.0]), c.h, c.v)
    assert np.allclose(x_r, [0.4, 1.0])
    assert np.allclose(p_r, [2.0, 3.0])


def test_reflect_involution_and_energy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = LinearConstraint(rng.normal(size=3), rng.normal())
        x = rng.normal(size=3)
        p = rng.normal(size=3)
        x1, p1 = reflect(x, p, c.h, c.v)
        x2, p2 = reflect(x1, p1, c.h, c.v)
        assert np.allclose(x2, x, atol=1e-12)
        assert np.allclose(p2, p, atol=1e-12)
        assert np.linalg.norm(p1) == pytest.approx(np.linalg.norm(p), rel=1e-12)


def test_reflected_walk_stays_feasible():
    # straight-line motion with reflections inside the unit box
    cons = HalfSpaces([
        LinearConstraint([1.0, 0.0], 0.0),
        LinearConstraint([-1.0, 0.0], -1.0),
        LinearConstraint([0.0, 1.0], 0.0),
        LinearConstraint([0.0, -1.0], -1.0),
    ])
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0.1, 0.9, size=2)
        p = rng.normal(size=2)
        remaining = rng.uniform(0.5, 4.0)
        for _ in range(10_000):
            t = hit_time(x, p, remaining, cons)
            j = int(t.argmin())
            if t[j] == np.inf:
                x = x + remaining * p
                break
            t_star, c_star = t[j], cons[j]
            x, p = reflect(x + t_star * remaining * p, p, c_star.h, c_star.v)
            remaining *= 1.0 - t_star
        for c in cons:
            assert c.slack(x) >= -1e-9


def test_reduced_var_target_lift():
    m = preset("M1")
    t = ReducedVarTarget(m, 10.0)
    assert t.dim == 2
    assert np.allclose(t.lift([4.0, 5.0]), [4.0, 5.0, 1.0])
    assert np.isfinite(t.logpdf([4.0, 5.0]))
    assert t.logpdf([6.0, 5.0]) == -np.inf


def test_reduced_var_sum_identity():
    m = preset("M1")
    t = ReducedVarTarget(m, 9.6)
    rng = np.random.default_rng(4)
    pts = rng.dirichlet(np.ones(3), size=50)[:, :2] * 9.6
    lifted = t.lift(pts)
    assert np.all(lifted.sum(axis=1) == 9.6)  # exact, not approximate
    assert np.allclose(lifted[:, :2], pts)


def test_reduced_var_grad_matches_finite_differences():
    m = preset("M1")
    t = ReducedVarTarget(m, 9.6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))[:2] * 9.6
        g = t.grad_logpdf(x)
        for j in range(2):
            h = 1e-6
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            fd = (t.logpdf(up) - t.logpdf(dn)) / (2.0 * h)
            assert g[j] == pytest.approx(fd, rel=5e-5, abs=1e-8)


def test_reduced_var_rejects_pnl_model():
    with pytest.raises(ValueError, match="pure|nonnegative|profit"):
        ReducedVarTarget(preset("M2"), 3.0)


def test_reduced_var_constraint_geometry():
    t = ReducedVarTarget(preset("M1"), 10.0)
    # feasible simplex point
    assert all(c.slack([3.0, 3.0]) >= 0 for c in t.constraints)
    # violates the sum cap
    assert any(c.slack([8.0, 8.0]) < 0 for c in t.constraints)


def test_event_target_restriction():
    m = preset("M1")
    ev = estimate_event(
        CrisisEventSpec("es", (0.9,)), m.sample(1000, np.random.default_rng(6)), m.support_class
    )
    tgt = EventTarget(m, ev)
    v = ev.thresholds["v"]
    inside = np.full(3, v / 3.0 + 0.5)
    outside = np.full(3, v / 3.0 - 0.5)
    assert tgt.logpdf(inside) == m.logpdf(inside)
    assert tgt.logpdf(outside) == -np.inf
    assert np.allclose(tgt.grad_logpdf(inside), m.grad_logpdf(inside))


def test_event_target_rejects_exact_var():
    ev = estimate_event(CrisisEventSpec("var", (0.99,)), ladder_presample(), "pnl")
    with pytest.raises(ValueError):
        EventTarget(preset("M1"), ev)


def test_standardize_identity():
    cons = (LinearConstraint([1.0, 2.0], 3.0),)
    out = standardize_constraints(cons, np.eye(2), np.zeros(2))
    assert np.allclose(out[0].h, [1.0, 2.0])
    assert out[0].v == 3.0


def test_standardize_zero_shift_rule():
    # with mu = 0 the rule is (L^T h, v)
    L = np.array([[2.0, 0.0], [1.0, 3.0]])
    cons = (LinearConstraint([1.0, 1.0], 5.0),)
    out = standardize_constraints(cons, L, np.zeros(2))
    assert np.allclose(out[0].h, L.T @ np.array([1.0, 1.0]))
    assert out[0].v == 5.0


def test_standardize_membership_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = 3
        L = np.tril(rng.normal(size=(d, d)))
        np.fill_diagonal(L, np.abs(np.diag(L)) + 0.5)
        mu = rng.normal(size=d)
        cons = tuple(
            LinearConstraint(rng.normal(size=d), rng.normal()) for _ in range(4)
        )
        std = standardize_constraints(cons, L, mu)
        for _ in range(20):
            y = rng.normal(size=d)
            x = mu + L @ y
            orig_ok = all(c.slack(x) >= 0 for c in cons)
            std_ok = all(c.slack(y) >= 0 for c in std)
            assert orig_ok == std_ok


def test_standardize_singular_rejected():
    with pytest.raises(ValueError):
        standardize_constraints(
            (LinearConstraint([1.0, 0.0], 0.0),), np.zeros((2, 2)), np.zeros(2)
        )
