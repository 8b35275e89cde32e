"""Shared fixtures: small problems, controls, and grids used across tests.

Everything here is deliberately cheap — grids with a few hundred steps and
path counts in the dozens — so the per-module tests stay fast.  The slow,
high-path-count runs live in test_acceptance.py.
"""

import numpy as np
import pytest

import soc_lab as sl


@pytest.fixture(scope="session")
def lq_problem():
    """Scalar LQ instance with nonzero drift, running cost, and noise."""
    return sl.make_lq_problem(a_mat=0.3, b_mat=1.0, sigma=0.8, q_run=0.5,
                              q_term=1.0, horizon=1.0)


@pytest.fixture(scope="session")
def sg_problem():
    """Multiplicative-noise scalar problem; both structure flags False."""
    return sl.make_scalar_geometric_problem()


@pytest.fixture(scope="session")
def ou_problem():
    """OU with quadratic terminal tilt (rate 1, tilt 1, horizon 4)."""
    return sl.make_ou_tilt_problem(1.0, 1.0, 4.0)


@pytest.fixture(scope="session")
def lq_2d_problem():
    """2-state / 1-control LQ instance for shape coverage."""
    a = np.array([[0.0, 1.0], [-0.5, -0.2]])
    b = np.array([[0.0], [1.0]])
    sigma = np.array([[0.3, 0.0], [0.0, 0.4]])
    q_run = np.diag([0.2, 0.1])
    return sl.make_lq_problem(a_mat=a, b_mat=b, sigma=sigma, q_run=q_run,
                              q_term=np.eye(2), horizon=1.0)


@pytest.fixture(scope="session")
def grid():
    return sl.TimeGrid(200, 1.0)


@pytest.fixture(scope="session")
def fine_grid():
    return sl.TimeGrid(1000, 1.0)


def make_mild_feedback(d, k, horizon, scale=-0.4, offset=0.05):
    """Single-interval affine feedback u = scale*x[:k...] + offset.

    Nonzero on purpose: identities that hold for any control should be
    exercised away from u == 0.
    """
    theta = np.zeros(k * d + k)
    gain = scale * np.eye(k, d)
    theta[:k * d] = gain.ravel()
    theta[k * d:] = offset
    return sl.make_linear_feedback_control(d, k, 1, horizon, theta=theta)


@pytest.fixture(scope="session")
def lq_control(lq_problem):
    return make_mild_feedback(lq_problem.d, lq_problem.k,
                              lq_problem.horizon)


@pytest.fixture(scope="session")
def sg_control(sg_problem):
    return make_mild_feedback(sg_problem.d, sg_problem.k,
                              sg_problem.horizon, scale=-0.3, offset=0.1)


def build_zero_cost_problem():
    """Controlled scalar dynamics dX = (0.5 X + u) dt + 0.2 dB with f == 0,
    g == 0.

    Useful for "no source, no adjoint" sanity checks: every adjoint and
    every pathwise cost must vanish identically.
    """

    def drift(x, u, t):
        return 0.5 * x + u

    def diffusion(x, u, t):
        return np.full((x.shape[0], 1, 1), 0.2)

    def running_cost(x, u, t):
        return np.zeros(x.shape[0])

    def terminal_cost(x):
        return np.zeros(x.shape[0])

    def initial_sampler(seed, path_index):
        from soc_lab import _rng
        gen = _rng.philox_generator(seed, path_index, _rng.INITIAL_STATE)
        return np.array([1.0 + 0.1 * gen.standard_normal()])

    bundle = sl.DerivativeBundle(
        d1_drift=lambda x, u, t: np.full((x.shape[0], 1, 1), 0.5),
        d2_drift=lambda x, u, t: np.ones((x.shape[0], 1, 1)),
        d1_cost=lambda x, u, t: np.zeros_like(x),
        d2_cost=lambda x, u, t: np.zeros_like(u),
        grad_terminal=lambda x: np.zeros_like(x),
        hess_terminal=lambda x: np.zeros((x.shape[0], 1, 1)),
        dsigma_dx=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
        dsigma_du=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
        second_order=sl.SecondOrderBundle(),
    )
    return sl.make_controlled_diffusion_problem(
        d=1, k=1, m=1, horizon=1.0, drift=drift, diffusion=diffusion,
        running_cost=running_cost, terminal_cost=terminal_cost,
        initial_sampler=initial_sampler, derivatives=bundle,
        name="zero_cost")


@pytest.fixture(scope="session")
def zero_cost_problem():
    return build_zero_cost_problem()


def build_u_noise_problem():
    """dX = (-X + u) dt + (0.5 + u) dB, f = 0.5 u^2, g = |x|^2, X_0 = 0:
    the diffusion depends on the control (dsigma/du = 1)."""

    def drift(x, u, t):
        return -x + u

    def diffusion(x, u, t):
        return (0.5 + u)[:, None, :] * np.ones((x.shape[0], 1, 1))

    def running_cost(x, u, t):
        return 0.5 * np.einsum("bk,bk->b", u, u)

    def terminal_cost(x):
        return np.einsum("bi,bi->b", x, x)

    def initial_sampler(seed, path_index):
        return np.zeros(1)

    bundle = sl.DerivativeBundle(
        d1_drift=lambda x, u, t: np.full((x.shape[0], 1, 1), -1.0),
        d2_drift=lambda x, u, t: np.ones((x.shape[0], 1, 1)),
        d1_cost=lambda x, u, t: np.zeros_like(x),
        d2_cost=lambda x, u, t: np.asarray(u, dtype=np.float64),
        grad_terminal=lambda x: 2.0 * x,
        hess_terminal=lambda x: np.full((x.shape[0], 1, 1), 2.0),
        dsigma_dx=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
        dsigma_du=lambda x, u, t: np.ones((x.shape[0], 1, 1, 1)),
    )
    return sl.make_controlled_diffusion_problem(
        d=1, k=1, m=1, horizon=1.0, drift=drift, diffusion=diffusion,
        running_cost=running_cost, terminal_cost=terminal_cost,
        initial_sampler=initial_sampler, derivatives=bundle,
        name="u_noise")


@pytest.fixture(scope="session")
def u_noise_problem():
    return build_u_noise_problem()
