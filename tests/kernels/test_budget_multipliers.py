"""Closed-form budget multipliers of the aggregate kernel.

At fixed totals ``(S, E)`` a miner's spend is piecewise affine and
non-increasing in its budget multiplier ``λ`` (interior, cloud-only and
edge-only pieces, plus a downward jump where the effective edge premium
reaches zero when ``p_e < p_c``).  ``_budget_multipliers`` solves
``spend = b`` on each piece in closed form; these tests check it against
the defining properties and against a bracket-and-bisect search on
``λ``, over random lanes covering every piece with both signs of
``p_e - p_c``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GameParameters, Prices
from repro.core.nep import solve_connected_equilibrium
from repro.exceptions import ConvergenceError
from repro.kernels import multiscenario as ms
from repro.kernels import solve_aggregate_batch


def responses(S, E, lam, q_e, q_c, p_e, p_c, A, Bm, AB, ASBE):
    """The kernel's KKT responses at multipliers ``λ``, regime included."""
    a_e, s_int, da, e_int, c_int = ms._lane_terms(S, E, lam, q_e, q_c,
                                                  p_e, p_c, A, Bm)
    return ms._corner_responses(a_e, s_int, e_int, c_int,
                                *ms._regime(da, e_int, c_int), AB, ASBE)


def bisect_multipliers(S, E, b, q_e, q_c, p_e, p_c, A, Bm, AB, ASBE):
    """Reference: bracket doubling, then bisection until the bracket
    collapses to adjacent doubles (the search the closed form replaced).
    """
    def spend(lam):
        e, c = responses(S, E, lam, q_e, q_c, p_e, p_c, A, Bm, AB, ASBE)
        return p_e * e + p_c * c

    lo = np.zeros_like(b)
    hi = np.ones_like(b)
    for _ in range(70):
        grow = spend(hi) > b
        if not grow.any():
            break
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, 2.0 * hi, hi)
    done = np.zeros(b.shape, dtype=bool)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        done |= (mid <= lo) | (mid >= hi)
        if done.all():
            break
        high = ~done & (spend(mid) > b)
        lo = np.where(high, mid, lo)
        hi = np.where(~done & ~high, mid, hi)
    return 0.5 * (lo + hi)


def random_lanes(seed, size):
    """Over-budget lanes of the general two-pool case (``q_e > q_c``).

    Half the lanes carry a shared-capacity mark-up ``ν > 0``, which is
    what makes ``p_e < p_c`` reachable.  Budgets are 2–98% of each
    lane's free (``λ = 0``) spend, so every lane binds.
    """
    rng = np.random.default_rng(seed)
    S = rng.uniform(1.0, 100.0, size)
    E = S * rng.uniform(0.01, 1.0, size)
    ks = rng.uniform(10.0, 1000.0, size)
    kg = ks * rng.uniform(0.01, 1.0, size)
    p_c = rng.uniform(0.2, 3.0, size)
    p_e = rng.uniform(0.2, 4.0, size)
    nu = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 3.0, size))
    q_e = p_e + nu
    A = ks / (S * S)
    Bm = kg / (E * E)
    AB = A + Bm
    ASBE = A * S + Bm * E
    e0, c0 = responses(S, E, 0.0, q_e, p_c, p_e, p_c, A, Bm, AB, ASBE)
    spend0 = p_e * e0 + p_c * c0
    keep = (q_e > p_c) & (spend0 > 1e-9)
    b = spend0 * rng.uniform(0.02, 0.98, size)
    lane = dict(S=S, E=E, b=b, q_e=q_e, q_c=p_c, p_e=p_e, p_c=p_c,
                A=A, Bm=Bm, AB=AB, ASBE=ASBE)
    return {k: v[keep] for k, v in lane.items()}


def solve(lane):
    return ms._budget_multipliers(
        lane["S"], lane["E"], lane["b"], lane["q_e"], lane["q_c"],
        lane["p_e"], lane["p_c"], lane["A"], lane["Bm"], lane["AB"],
        lane["ASBE"])


def terms_at(lane, lam):
    return ms._lane_terms(lane["S"], lane["E"], lam, lane["q_e"],
                          lane["q_c"], lane["p_e"], lane["p_c"],
                          lane["A"], lane["Bm"])


def regime_at(lane, lam):
    """``(cloud, edge)`` masks of the kernel's branch rules at ``λ``."""
    return ms._regime(*terms_at(lane, lam)[2:])


def spend_at(lane, lam, cloud, edge):
    a_e, s_int, _, e_int, c_int = terms_at(lane, lam)
    e, c = ms._corner_responses(a_e, s_int, e_int, c_int, cloud, edge,
                                lane["AB"], lane["ASBE"])
    return lane["p_e"] * e + lane["p_c"] * c


def jump_lanes(lane, lam):
    """Lanes resolved at the ``da = 0`` discontinuity ``λ = dq/(-dp)``."""
    dq = lane["q_e"] - lane["q_c"]
    dp = lane["p_e"] - lane["p_c"]
    down = dp < 0.0
    return down & (lam == dq / np.where(down, -dp, 1.0))


def check_lanes(lane):
    lam, cloud, edge, ok = solve(lane)
    b = lane["b"]
    assert ok.all()
    assert np.all(np.isfinite(lam)) and np.all(lam >= 0.0)
    jump = jump_lanes(lane, lam)
    free = ~jump
    # Off the jump: the regime at λ is the piece λ was solved on, and
    # the spend there is the budget.
    rc, re = regime_at(lane, lam)
    assert np.array_equal(rc[free], cloud[free])
    assert np.array_equal(re[free], edge[free])
    rel = np.abs(spend_at(lane, lam, cloud, edge) - b) / b
    assert np.max(rel[free], initial=0.0) <= 1e-12
    # On the jump: the edge corner there spends at most the budget and
    # the interior just below it overspends, so no λ meets b exactly.
    assert np.all(edge[jump] & ~cloud[jump])
    assert np.all(spend_at(lane, lam, cloud, edge)[jump]
                  <= b[jump] * (1.0 + 1e-12))
    below = lam * (1.0 - 1e-9)
    assert np.all(spend_at(lane, below, *regime_at(lane, below))[jump]
                  > b[jump])
    # Both agree with the bracket-and-bisect search.
    ref = bisect_multipliers(*(lane[k] for k in (
        "S", "E", "b", "q_e", "q_c", "p_e", "p_c", "A", "Bm", "AB",
        "ASBE")))
    assert np.max(np.abs(lam - ref) / lam, initial=0.0) <= 1e-9
    return lam, cloud, edge, jump


class TestClosedForm:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_random_lanes(self, seed, size):
        check_lanes(random_lanes(seed, size))

    def test_every_piece_with_both_premium_signs(self):
        lane = random_lanes(7, 20000)
        lam, cloud, edge, jump = check_lanes(lane)
        down = lane["p_e"] < lane["p_c"]
        interior = ~cloud & ~edge
        for piece in (interior, cloud, edge & ~jump):
            assert np.any(piece & down) and np.any(piece & ~down)
        assert np.any(jump)

    def test_budget_on_the_interior_cloud_breakpoint(self):
        # b equal to the spend where e_int reaches 0: the interior and
        # cloud pieces meet there and both candidates are λ_b up to
        # rounding, so either regime may be picked, but not the edge.
        lane = random_lanes(5, 4000)
        dq = lane["q_e"] - lane["q_c"]
        dp = lane["p_e"] - lane["p_c"]
        up = dp > 0.0
        lam_b = np.where(up, lane["E"] * lane["Bm"] - dq, -1.0) / np.where(
            up, dp, 1.0)
        s_b = lane["S"] - (lane["q_c"] + lam_b * lane["p_c"]) / lane["A"]
        keep = up & (lam_b > 0.0) & (s_b > 0.0)
        lane = {k: v[keep] for k, v in lane.items()}
        lam_b = lam_b[keep]
        lane["b"] = lane["p_c"] * s_b[keep]
        lam, cloud, edge, ok = solve(lane)
        assert lane["b"].size > 100 and ok.all()
        assert not edge.any()
        np.testing.assert_allclose(lam, lam_b, rtol=1e-9)
        rel = np.abs(spend_at(lane, lam, cloud, edge) - lane["b"])
        assert np.max(rel / lane["b"]) <= 1e-12

    def test_non_finite_lane_is_not_ok(self):
        lane = random_lanes(3, 8)
        lane["S"] = lane["S"].copy()
        lane["S"][2] = np.inf
        with np.errstate(invalid="ignore"):
            lam, _, _, ok = solve(lane)
        assert not ok[2]
        assert ok[np.arange(ok.size) != 2].all()


def _poison_first_scenario(monkeypatch):
    """Make every multiplier of scenario 0 (budgets ≤ 10) non-finite."""
    real = ms._budget_multipliers

    def poisoned(S, E, b, *rest):
        lam, cloud, edge, ok = real(S, E, b, *rest)
        hit = b <= 10.0
        lam = np.where(hit, np.nan, lam)
        return lam, cloud, edge, ok & ~hit

    monkeypatch.setattr(ms, "_budget_multipliers", poisoned)


class TestNonFiniteLanes:
    def _batch(self):
        # Scenario 0 is budget-bound below 10; scenario 1 has budgets
        # above 10 throughout, so only scenario 0 is poisoned.
        budgets = np.array([[3.0 + 0.5 * j for j in range(6)],
                            [12.0 + 2.0 * j for j in range(6)]])
        one = np.ones(2)
        return budgets, dict(reward=2000.0 * one, beta=0.2 * one,
                             gamma=0.16 * one, p_e=2.0 * one,
                             p_c=1.0 * one, nu=0.0 * one)

    def test_batch_flags_only_that_scenario(self, monkeypatch):
        budgets, kw = self._batch()
        clean = solve_aggregate_batch(budgets, None, **kw)
        _poison_first_scenario(monkeypatch)
        sol = solve_aggregate_batch(budgets, None, **kw)
        assert sol.failed.tolist() == [True, False]
        assert np.array_equal(sol.e[1], clean.e[1])
        assert np.array_equal(sol.c[1], clean.c[1])

    def test_solo_raises_convergence_error(self, monkeypatch):
        _poison_first_scenario(monkeypatch)
        params = GameParameters(reward=2000.0, fork_rate=0.2, h=0.8,
                                budgets=[3.0 + 0.5 * j for j in range(6)])
        with pytest.raises(ConvergenceError):
            solve_connected_equilibrium(params, Prices(2.0, 1.0),
                                        kernel="vectorized")
