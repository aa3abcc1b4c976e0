"""Production stepping states recorded through the solver's observer hook.

The naive oracle (`naive_reference`) is compared against these states, so
the oracle checks the kernel the ensembles run rather than a replay of it.
"""

import numpy as np

from quenchsim import ModelParams, assemble_matrix, factorize
from quenchsim.noise import batch_drive
from quenchsim.solver import simulate_batch

from naive_reference import naive_quench_time, naive_trajectory

# Small instance shared by the 20-seed oracle checks.
ORACLE_PARAMS = ModelParams(M=5, N=10, T=1.0, lam=0.5, kappa1=0.3, kappa2=0.3, c=0.2)


def record_states(params, seeds, columns=None, factor=None, lams=None):
    """Run `seeds` as one batch; return (results, states).

    states[j] lists copies of column j's state at every step it was still
    running, from the initial condition through the state that quenched.
    Only the batch positions in `columns` are recorded (default: all).
    `lams` is passed to `simulate_batch`: column p*len(seeds) + j runs
    lams[p] on seed j.
    """
    if factor is None:
        factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
    if columns is None:
        columns = range(len(seeds) * (1 if lams is None else len(lams)))
    states = {j: [] for j in columns}

    def observe(n, u, active):
        for j, kept in states.items():
            if active[j]:
                kept.append(u[:, j].copy())

    drive = batch_drive(params, seeds)
    results = simulate_batch(factor, params, seeds, observer=observe, drive=drive, lams=lams)
    return results, states


def oracle_deviation(params, seed):
    """Worst magnitude-scaled gap between production and naive states of one seed.

    Also asserts that both take the same number of steps and agree on the
    quench outcome and time.
    """
    (result,), states = record_states(params, [seed])
    quenched, tq = naive_quench_time(params, seed)
    assert result.quenched == quenched
    if quenched:
        assert abs(result.T_q - tq) <= 1e-15
    return naive_deviation(states[0], params, seed)


def naive_deviation(states, params, seed):
    """Worst magnitude-scaled gap between recorded states and the naive trajectory.

    Also asserts that both hold the same number of states.
    """
    naive_states = naive_trajectory(params, seed)
    assert len(states) == len(naive_states)
    worst = 0.0
    for mine, naive in zip(states, naive_states):
        # tolerance scales with magnitude: post-singular states are large
        scale = max(1.0, float(np.max(np.abs(naive))))
        worst = max(worst, float(np.max(np.abs(mine - np.array(naive)))) / scale)
    return worst
