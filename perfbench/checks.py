"""The correctness gate: every served result the benchmark accepts.

Checks run outside the timed windows. Each returns a list of failure
strings (empty when the result is correct); the callers count every
failing result in ``failed``.

* Theorem 1: the fully-satisfied winning probabilities sum to one.
* Budget feasibility (and the shared edge capacity in standalone mode).
* One Jacobi best-response sweep from the served profile moves no
  coordinate by more than :data:`RESIDUAL_TOL` (relative): the profile
  is a fixed point of the miners' best-response map.
* Homogeneous games: the profile matches the Theorem 3 / Corollary 1
  closed form within :data:`CLOSED_FORM_RTOL`.
* Leader-stage results pass ``verify_sp_equilibrium``.
* Bit identity: ``same_bits`` compares two profiles exactly.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

#: Relative tolerance of the closed-form comparison (the largest
#: deviation seen on the hot-http pool is 7e-8 absolute on values ~10).
CLOSED_FORM_RTOL = 1e-6
#: Relative tolerance of the one-sweep fixed-point residual.
RESIDUAL_TOL = 1e-6
#: Slack of the budget and capacity inequalities (relative).
FEASIBILITY_RTOL = 1e-9


def check_miner(eq: Any) -> List[str]:
    """Theorem 1, feasibility and fixed-point checks of one
    :class:`~repro.core.nep.MinerEquilibrium`."""
    from repro.core.nep import best_response_profile
    from repro.core.params import EdgeMode
    from repro.core.winning import w_full

    params, prices = eq.params, eq.prices
    e = np.asarray(eq.e, dtype=float)
    c = np.asarray(eq.c, dtype=float)
    problems = []
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(c))):
        return ["non-finite profile"]
    if np.any(e < 0) or np.any(c < 0):
        problems.append("negative request")
    total_w = float(np.sum(w_full(e, c, params.fork_rate)))
    if abs(total_w - 1.0) > 1e-9:
        problems.append(f"Theorem 1: sum W_i = {total_w!r}")
    spend = prices.p_e * e + prices.p_c * c
    budgets = params.budget_array
    if np.any(spend > budgets * (1.0 + FEASIBILITY_RTOL)):
        worst = float(np.max(spend / budgets))
        problems.append(f"budget exceeded (spend/budget {worst!r})")
    if params.mode is EdgeMode.STANDALONE:
        assert params.e_max is not None
        if float(np.sum(e)) > params.e_max * (1.0 + FEASIBILITY_RTOL):
            problems.append("edge capacity exceeded")
    e_br, c_br = best_response_profile(e, c, params, prices, nu=eq.nu,
                                       sweep="jacobi")
    scale = max(1.0, float(np.max(np.abs(np.concatenate([e, c])))))
    residual = float(np.max(np.abs(np.concatenate([e_br - e,
                                                   c_br - c])))) / scale
    if residual > RESIDUAL_TOL:
        problems.append(f"best-response residual {residual:.3e}")
    return problems


def check_homogeneous(eq: Any) -> List[str]:
    """The served profile against Theorem 3 / Corollary 1."""
    from repro.core.closed_form import homogeneous_miner_equilibrium

    p = eq.params
    closed = homogeneous_miner_equilibrium(
        p.n, float(p.budget_array[0]), p.reward, p.fork_rate,
        p.effective_h, eq.prices)
    e = np.asarray(eq.e, dtype=float)
    c = np.asarray(eq.c, dtype=float)
    dev = max(float(np.max(np.abs(e - closed.e))) / abs(closed.e),
              float(np.max(np.abs(c - closed.c))) / abs(closed.c))
    if dev > CLOSED_FORM_RTOL:
        return [f"closed form ({closed.regime}) deviation {dev:.3e}"]
    return []


def check_leader(se: Any, kernel: str, tol: float) -> List[str]:
    """A leader-stage result: its follower profile passes the miner
    checks and the prices pass ``verify_sp_equilibrium``."""
    from repro.core.sp_game import DemandOracle
    from repro.core.stackelberg import verify_sp_equilibrium

    problems = check_miner(se.miners)
    oracle = DemandOracle(se.miners.params, tol=tol, kernel=kernel)
    ok, gain = verify_sp_equilibrium(se, oracle=oracle)
    if not ok:
        problems.append(f"profitable SP deviation (gain {gain:.3e})")
    return problems


def same_bits(a: Any, b: Any) -> bool:
    """Whether two equilibria (miner or leader stage) agree exactly."""
    a_miners = getattr(a, "miners", a)
    b_miners = getattr(b, "miners", b)
    if not (np.array_equal(a_miners.e, b_miners.e)
            and np.array_equal(a_miners.c, b_miners.c)):
        return False
    a_prices = getattr(a, "prices", None)
    b_prices = getattr(b, "prices", None)
    return a_prices == b_prices

