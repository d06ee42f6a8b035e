import math

import numpy as np
import pytest

from starparadox.priors import (
    DiscretePrior,
    LogPrior,
    PowerPrior,
    Prior,
    TamePrior,
    TLogPrior,
    UniformPrior,
    parse_prior,
)
from starparadox.tempering import (
    ExpansionViolation,
    TaylorModel,
    check_condition2,
    check_tempered,
    default_s_grid,
    default_z_grid,
    fit_taylor,
)


class _SyntheticExpTail(Prior):
    """Counterexample for the decay condition: P(Ti <= 1/n) = exp(-n)."""

    kind = "synthetic-exp-tail"

    def log_ti_cdf(self, x):
        return np.minimum(0.0, -1.0 / np.asarray(x))


class _BoundedAwayTi(Prior):
    """Ti never reaches 0: the corner probability vanishes identically."""

    kind = "synthetic-bounded"

    def log_ti_cdf(self, x):
        return np.where(np.asarray(x) >= 1.0, 0.0, -math.inf)


class _LogPeriodicG(Prior):
    """G(z, s) = s (1 + 0.05 sin(2 log s)): a power law modulated in log s."""

    kind = "synthetic-log-periodic"

    def g(self, z, s):
        return s * (1.0 + 0.05 * np.sin(2.0 * np.log(s)))


class TestCondition2:
    def test_uniform_exponent(self):
        res = check_condition2(UniformPrior(1.0), 0.1)
        assert res.satisfied
        assert res.exponent == pytest.approx(2.0, abs=0.05)

    def test_tame_exponent(self):
        res = check_condition2(TamePrior(), 0.1)
        assert res.satisfied
        assert res.exponent == pytest.approx(2.0, abs=0.05)

    def test_power_exponent(self):
        res = check_condition2(PowerPrior(0.5), 0.1)
        assert res.satisfied
        assert res.exponent == pytest.approx(1.5, abs=0.05)

    def test_discrete_exponent(self):
        res = check_condition2(DiscretePrior(0.1, 0.5), 0.1)
        assert res.satisfied
        assert res.exponent == pytest.approx(6.0, abs=0.1)

    def test_synthetic_violation(self):
        res = check_condition2(_SyntheticExpTail(), 0.1)
        assert res.status == "violated"

    def test_inconclusive_when_corner_unreachable(self):
        res = check_condition2(_BoundedAwayTi(), 0.1)
        assert res.status == "inconclusive"


class TestFitTaylor:
    def test_uniform_model(self):
        model = fit_taylor(UniformPrior(1.0), default_z_grid(0.1), default_s_grid(0.1))
        assert isinstance(model, TaylorModel)
        assert model.alpha == pytest.approx(1.0, rel=1e-6)
        # leading coefficient is 1/(z * H(z, s_sat))
        spec = UniformPrior(1.0)
        for iz, z in enumerate(model.z_grid):
            expected = 1.0 / (z * spec.h_sat(z))
            assert model.coeffs[iz, 0] == pytest.approx(expected, rel=1e-4)

    def test_discrete_alpha_and_series_coefficients(self):
        spec = DiscretePrior(0.1, 0.5)
        model = fit_taylor(spec, default_z_grid(0.1), default_s_grid(0.1))
        assert isinstance(model, TaylorModel)
        beta = spec.b / spec.a
        assert model.alpha == pytest.approx(beta, rel=0.02)
        # analytic coefficients of h(u)^(b/a) = (3u/4)^(b/a) (1 + a1 u + a2 u^2 + a3 u^3 + ...)
        a1 = -beta / 2.0
        a2 = beta + beta * (beta - 1.0) / 8.0
        a3 = -5.0 * beta / 4.0 - beta * (beta - 1.0) / 2.0 - beta * (beta - 1.0) * (beta - 2.0) / 48.0
        for iz, z in enumerate(model.z_grid):
            f0 = model.coeffs[iz, 0]
            assert (3.0 / (4.0 * z)) ** beta / spec.h_sat(z) == pytest.approx(f0, rel=1e-3)
            assert model.coeffs[iz, 1] * z / f0 == pytest.approx(a1, rel=0.01)
            assert model.coeffs[iz, 2] * z**2 / f0 == pytest.approx(a2, rel=0.02)
            # the guard coefficient absorbs next-order leakage; sign and size only
            assert model.guard_coeffs[iz] * z**3 / f0 == pytest.approx(a3, rel=0.25)

    def test_log_prior_rejected_with_diagnostic(self):
        res = fit_taylor(LogPrior(), default_z_grid(0.1), default_s_grid(0.1))
        assert isinstance(res, ExpansionViolation)
        assert "log s" in res.diagnostic
        assert res.leading_exponent == pytest.approx(1.0, abs=0.1)
        assert res.diagnostic == "s·log s"

    def test_tlog_prior_rejected_second_order(self):
        res = fit_taylor(TLogPrior(), default_z_grid(0.1), default_s_grid(0.1))
        assert isinstance(res, ExpansionViolation)
        assert res.diagnostic == "s^2·log s"
        assert res.leading_exponent == pytest.approx(2.0, abs=0.1)

    def test_non_power_structure_without_log_term(self):
        res = fit_taylor(_LogPeriodicG(), default_z_grid(0.1), default_s_grid(0.1))
        assert isinstance(res, ExpansionViolation)
        assert res.diagnostic == "non-power structure (no log term identified)"
        assert 0.9 < res.leading_exponent < 1.0

    def test_short_grid_reported(self):
        spec = UniformPrior(1.0)
        with pytest.raises(ValueError, match="decades"):
            fit_taylor(spec, default_z_grid(0.1), np.geomspace(1e-3, 1e-2, 30))
        with pytest.raises(ValueError, match="short"):
            fit_taylor(spec, default_z_grid(0.1), np.geomspace(1e-6, 1e-1, 10))


class TestPowerCoefficients:
    def test_theta_half_h_coefficients(self):
        # fitted H coefficients vs 4/sqrt(3z), 5/(3z)^(3/2), 9 sqrt(3)/(40 z^(5/2))
        spec = PowerPrior(0.5)
        z_grid = np.array([1.5, 2.0, 2.5])
        model = fit_taylor(spec, z_grid, default_s_grid(0.1))
        assert isinstance(model, TaylorModel)
        assert model.alpha == pytest.approx(0.5, rel=1e-5)
        for iz, z in enumerate(z_grid):
            hsat = spec.h_sat(z)
            fitted = model.coeffs[iz, :3] * hsat
            expected = np.array(
                [4.0 / math.sqrt(3 * z), 5.0 / (3 * z) ** 1.5, 9.0 * math.sqrt(3.0) / (40.0 * z**2.5)]
            )
            assert np.all(np.abs(fitted / expected - 1.0) < 0.01)


class TestCheckTempered:
    def test_uniform_tempered(self):
        v = check_tempered(UniformPrior(1.0), 0.1)
        assert v.tempered

    def test_logti_not_tempered(self):
        v = check_tempered(LogPrior(), 0.1)
        assert not v.tempered
        assert isinstance(v.condition1, ExpansionViolation)
        assert v.condition1.diagnostic == "s·log s"
        assert v.condition2.satisfied  # only condition 1 fails

    def test_discrete_tempered_with_alpha(self):
        v = check_tempered(DiscretePrior(0.1, 0.5), 0.1)
        assert v.tempered
        assert v.condition1.alpha == pytest.approx(5.0, rel=0.02)

    def test_discrete_large_alpha_not_one_step_low(self):
        # b/a = 10: a search wider than the ladder step found alpha = 9 with F_0 = 0
        v = check_tempered(DiscretePrior(0.2, 2.0), 0.1)
        assert v.tempered
        assert v.condition1.alpha == pytest.approx(10.0, rel=0.02)

    def test_summary_shape(self):
        s = check_tempered(UniformPrior(1.0), 0.1).summary()
        assert s["tempered"] is True
        assert s["condition1"]["status"] == "satisfied"
        assert s["condition2"]["status"] == "satisfied"

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            check_tempered(UniformPrior(1.0), 0.0)

    @pytest.mark.parametrize("spec", [UniformPrior(1.0), TamePrior()], ids=lambda s: s.kind)
    @pytest.mark.parametrize("t", [2.0, 7.0, 10.0, 30.0])
    def test_closed_forms_tempered_at_large_t(self, spec, t):
        # the s-grid's bottom is 1.5e-5 exp(-8t): H must keep its digits as s/z -> 0
        v = check_tempered(spec, t)
        assert v.tempered
        assert v.condition1.alpha == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("theta", [5e-4, 1e-4, 1e-6, 1e-9])
    def test_small_theta_power_tempered(self, theta):
        # alpha is a linear coefficient of the log G fit, with no bounds: any small theta is in reach
        v = check_tempered(PowerPrior(theta), 0.1)
        assert v.tempered
        assert v.condition1.alpha == pytest.approx(theta, rel=2e-8)

    def test_one_g_call_per_row(self, monkeypatch):
        spec = PowerPrior(0.5)
        shapes = []
        real = spec.g
        monkeypatch.setattr(spec, "g", lambda z, s: shapes.append(np.shape(s)) or real(z, s))
        z_grid, s_grid = default_z_grid(0.1), default_s_grid(0.1)
        assert isinstance(fit_taylor(spec, z_grid, s_grid), TaylorModel)
        assert shapes == [s_grid.shape] * len(z_grid)


_CATALOG = ("tame", "uniform:1.0", "power:0.5", "discrete:0.1,0.5", "logti", "tlogti")
# the prior-check sweep: the catalog and five harder priors at eight t
_HARDER = ("discrete:0.2,2.0", "power:0.01", "power:1e-3", "power:5e-4", "discrete:0.1,5")
_SWEEP_T = (1e-9, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 2.0)
# verdicts still wrong: "non-power structure" where the declared law is a power.  At t = 1e-9
# G ~ F_0 s^50 with F_0 >= 1e396 beyond the float range, so s^50 / G underflows to 0
_WRONG = {("discrete:0.1,5", 1e-9)}
# G ~ s^50 lies below the smallest normal float on the s-grid: an exit 2 naming that bound
_UNDERFLOW = {("discrete:0.1,5", 1.0), ("discrete:0.1,5", 2.0)}


def _declared_cases():
    """The catalog at t = 0.02 and on the sweep, ids by kind (bare at t = 0.1); then the
    harder priors on the sweep, ids by spec."""
    wrong = pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason="reads non-power structure off a declared power law")

    def case(spec, t, name):
        return pytest.param(spec, t, marks=[wrong] if (spec, t) in _WRONG else [], id=name)

    for t in (1e-9, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0, 2.0):
        for spec in _CATALOG:
            kind = parse_prior(spec).kind
            yield case(spec, t, kind if t == 0.1 else f"{kind}-t{t}")
    for spec in _HARDER:
        for t in _SWEEP_T:
            yield case(spec, t, f"{spec}-t{t}")


class TestDeclaredMetadata:
    """Fitted verdicts must agree with the declared catalog metadata."""

    @pytest.mark.parametrize("spec, t", list(_declared_cases()))
    def test_fit_matches_declaration(self, spec, t):
        prior = parse_prior(spec)
        if (spec, t) in _UNDERFLOW:
            with pytest.raises(ValueError, match="below the smallest normal float"):
                check_tempered(prior, t)
            return
        declared = prior.declared_tempering()
        v = check_tempered(prior, t)
        assert v.tempered == declared["tempered"]
        if declared["tempered"]:
            assert v.condition1.alpha == pytest.approx(declared["alpha"], rel=1e-5)
        else:
            assert v.condition1.diagnostic == declared["diagnostic"]

    def test_base_class_declares_nothing(self):
        from starparadox.priors import Prior

        assert Prior().declared_tempering() is None
