import numpy as np
import pytest

from hlsp.cascade import NullSpaceChain
from hlsp.config import SolverConfig
from hlsp.factorization import rrqr
from hlsp.newton import Counters, IterateState, LevelContext


def build_random_level(
    seed,
    n=6,
    m_eq=2,
    m_ineq=2,
    m_inact=2,
    m_prior=2,
    prior_stages=1,
    prior_dependent=0,
    config=None,
):
    """Random mid-solve snapshot of one level with valid sign conditions.

    Prior levels are materialized as chain stages so the active stack, the
    null-space basis and the dual recursion are all real. The primal is
    placed on the active constraints so the augmented system's secondary
    right-hand side vanishes, as the cascade maintains it. The last
    ``prior_dependent`` rows of each prior stage, with their right-hand
    sides and violations, are combinations of its other rows, as restated
    rows are in a cascade.
    """
    rng = np.random.default_rng(seed)
    config = config or SolverConfig()
    chain = NullSpaceChain(n)
    for _ in range(prior_stages if m_prior else 0):
        rows = rng.uniform(-1, 1, (m_prior, n))
        rhs = rng.uniform(-1, 1, m_prior)
        v_star = rng.uniform(-0.5, 0.0, m_prior)
        if prior_dependent:
            base = m_prior - prior_dependent
            mix = rng.uniform(-1, 1, (prior_dependent, base))
            rows[base:], rhs[base:] = mix @ rows[:base], mix @ rhs[:base]
            v_star[base:] = mix @ v_star[:base]
        fact = rrqr(rows @ chain.basis)
        chain.extend(rows, rhs, v_star, fact)
    a_act, b_act, v_act = chain.rows, chain.rhs, chain.v_star

    if a_act.shape[0]:
        x = np.linalg.lstsq(a_act, b_act + v_act, rcond=None)[0]
    else:
        x = rng.uniform(-1, 1, n)

    a_eq = rng.uniform(-1, 1, (m_eq, n))
    b_eq = rng.uniform(-1, 1, m_eq)
    a_ineq = rng.uniform(-1, 1, (m_ineq, n))
    b_ineq = rng.uniform(-1, 1, m_ineq)
    a_inact = rng.uniform(-1, 1, (m_inact, n))
    b_inact = rng.uniform(-1, 1, m_inact)

    counters = Counters()
    basis = chain.basis
    ctx = LevelContext(
        basis=basis,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
        a_act=a_act,
        b_act=b_act,
        v_act=v_act,
        a_inact=a_inact,
        b_inact=b_inact,
        proj_eq=a_eq @ basis,
        proj_ineq=a_ineq @ basis,
        proj_inact=a_inact @ basis,
        stage1=rrqr(a_eq @ basis),
        stages=tuple(chain.stages),
        counters=counters,
        config=config,
    )
    s = IterateState(
        x=x,
        v_eq=a_eq @ x - b_eq,
        v_ineq=-rng.uniform(0.2, 1.5, m_ineq),
        w_ineq=rng.uniform(0.2, 1.5, m_ineq),
        w_inact=rng.uniform(0.2, 1.5, m_inact),
        lam_inact=rng.uniform(0.2, 1.5, m_inact),
    )
    return ctx, s


@pytest.fixture
def level_state():
    return build_random_level
