"""Seeded inputs of the four workloads.

The benchmark builds its own scenario pools (it does not reuse the
program's load generator), so a change to the program cannot change
what is measured. Every generator is a pure function of the seed.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np


# The paper's Section-VI setup (``PaperSetup``): n=5, B=200, R=1500,
# beta=0.2, h=0.8, E_max=80, P_e=2, P_c=1.
REWARD = 1500.0
BETA = 0.2
H = 0.8
E_MAX = 80.0
P_E, P_C = 2.0, 1.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws in [0, 1), one from each of ``n`` equal strata, in a
    random order: every population gets an even spread of budgets, so
    solve costs vary less between seeds than with i.i.d. draws."""
    return np.asarray(rng.permutation((np.arange(n) + rng.random(n)) / n))


def binding_threshold(n: int, h: float) -> float:
    """Per-miner spend of the interior equilibrium; budgets below it
    bind (Theorem 3 vs Corollary 1)."""
    return REWARD * (n - 1) * (1.0 - BETA + BETA * h) / (n * n)


def hot_pool(seed: int, keys: int) -> List[Any]:
    """Homogeneous n=5 paper-setup miner-stage scenarios, listed in
    popularity-rank order.

    Budgets span both closed-form regimes (the binding threshold is
    230.4), so the Theorem 3 and the Corollary 1 checks both run.
    """
    from repro.core.params import Prices, homogeneous
    from repro.serving.keys import ScenarioSpec

    budgets = 100.0 + 300.0 * _strata(_rng(seed, 1), keys)
    prices = Prices(p_e=P_E, p_c=P_C)
    return [ScenarioSpec(params=homogeneous(5, float(b), reward=REWARD,
                                            fork_rate=BETA, h=H),
                         prices=prices)
            for b in budgets]


def churn_pool(seed: int, universe: int, max_miners: int,
               standalone_share: float) -> List[Any]:
    """Small heterogeneous budget-bound populations in both modes.

    Listed in popularity-rank order (see :func:`popularity`). The shape
    of each rank is fixed: every ``1/standalone_share``-th rank is a
    standalone game of 3 or 4 miners, the others are connected games
    whose miner counts cycle through 3..``max_miners``, so
    the cost mix of the hot set is the same for every seed; the seed
    draws the budgets. Every budget lies between 30% and 90% of the
    binding threshold of its game, so every miner's budget binds.
    """
    from repro.core.params import EdgeMode, GameParameters, Prices
    from repro.serving.keys import ScenarioSpec

    rng = _rng(seed, 2)
    prices = Prices(p_e=P_E, p_c=P_C)
    stride = round(1.0 / standalone_share)
    sizes = max_miners - 2
    specs = []
    for rank in range(universe):
        standalone = rank % stride == stride // 2
        # Standalone GNEP solves cost ~25 ms at n=3 but ~290 ms at
        # n=8; small standalone games keep the solver thread's queue
        # from being set by a handful of keys.
        n = 3 + (rank // stride) % 2 if standalone else 3 + rank % sizes
        h = 1.0 if standalone else H
        budgets = binding_threshold(n, h) * (0.3 + 0.6 * _strata(rng, n))
        budgets = tuple(float(b) for b in budgets)
        if standalone:
            params = GameParameters(reward=REWARD, fork_rate=BETA,
                                    budgets=budgets,
                                    mode=EdgeMode.STANDALONE,
                                    e_max=E_MAX)
        else:
            params = GameParameters(reward=REWARD, fork_rate=BETA,
                                    budgets=budgets, h=H)
        specs.append(ScenarioSpec(params=params, prices=prices))
    return specs


def arrivals(seed: int, step: int, rate: float, duration: float,
             probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival offsets (seconds) and key indices of one step: evenly
    spaced at ``rate`` from a seeded phase.

    Keys are drawn by stratified sampling of the popularity CDF (a
    golden-ratio sequence from a seeded start), so every window carries
    the popularity mix it should instead of whichever hot keys an
    i.i.d. draw happened to bunch together.
    """
    rng = _rng(seed, 1000 + step)
    due = (rng.random() + np.arange(int(rate * duration))) / rate
    due = due[due < duration]
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    u = np.mod(rng.random() + golden * np.arange(len(due)), 1.0)
    keys = np.searchsorted(np.cumsum(probs), u * float(np.sum(probs)))
    return due, np.minimum(keys, len(probs) - 1)


def sweep_batch(seed: int, index: int, miners: int, grid: int,
                p_c_low: float, p_c_high: float) -> List[Any]:
    """A cold P_c grid over a fresh heterogeneous budget-bound
    connected population (every budget below its binding threshold)."""
    from repro.core.params import GameParameters, Prices
    from repro.serving.keys import ScenarioSpec

    rng = _rng(seed, 10_000 + index)
    # R grows with n so the population stays in the paper's regime.
    reward = REWARD * miners / 8.0
    threshold = reward * (miners - 1) * (1.0 - BETA + BETA * H) / (
        miners * miners)
    budgets = threshold * (0.3 + 0.6 * _strata(rng, miners))
    params = GameParameters(reward=reward, fork_rate=BETA,
                            budgets=tuple(float(b) for b in budgets), h=H)
    return [ScenarioSpec(params=params, prices=Prices(p_e=P_E,
                                                      p_c=float(p_c)))
            for p_c in np.linspace(p_c_low, p_c_high, grid)]


def leader_spec(seed: int, index: int, miners: int,
                edge_costs: List[float], cloud_cost: float) -> Any:
    """Leader-stage scenario ``index`` of the Fig. 8 C_e sweep.

    The population is drawn once per seed (budgets within +-30% of
    B=200); successive solves walk C_e upward, so each one can warm
    start from its predecessor.
    """
    from repro.core.params import GameParameters
    from repro.serving.keys import ScenarioSpec

    budgets = 200.0 * (0.7 + 0.6 * _strata(_rng(seed, 4), miners))
    edge_cost = edge_costs[index]
    params = GameParameters(reward=REWARD, fork_rate=BETA,
                            budgets=tuple(float(b) for b in budgets), h=H,
                            edge_cost=float(edge_cost),
                            cloud_cost=float(cloud_cost))
    return ScenarioSpec(params=params)

