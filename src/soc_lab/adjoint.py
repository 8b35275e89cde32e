"""Backward adjoint solvers along frozen trajectories.

All recursions run backwards on a stored trajectory. The step from node
i+1 to node i is explicit in the adjoint value (it enters at a_{i+1}) but
evaluates every derivative coefficient at the forward scheme's own
evaluation point, x = X_i, u = controls[i], t = t_i. That pairing makes
each backward step the transpose of the corresponding forward Euler step's
linearization, so the recursions differentiate the simulated discrete
functional itself rather than an O(dt) neighbour of it. Control
state-Jacobians follow the same convention.

Three vector adjoints share the terminal anchor a_N = grad_terminal(X_N):

  * lean  — partial-derivative recursion
        a_i = a_{i+1} + dt * (d1_drift' a_{i+1} + d1_cost),
    which ignores how the control feeds back into the state.
  * full  — total-derivative recursion including the diffusion coupling
    terms G_j = dsigma_dx_j + dsigma_du_j du_dx; reduces to `lean`
    bit-for-bit when the diffusion is (x,u)-free and the control frozen.
    A term known to be zero is skipped, not contracted: a bundle entry
    left as None, and every du_dx term of a frozen control.
  * full_with_h — `full` plus a noise-coupled running term h(x,t).dB in
    the pathwise functional.

The matrix adjoint A_i (second_order kind) differentiates the same
functional twice; it needs the problem's SecondOrderBundle and a control
family whose d2u/dx2 vanishes. Its batched matrix-matrix products, like
those of the total derivatives and `fundamental_matrix`, go through
`simulate._dot` (matmul at d > 1, an exact broadcast product at d = 1),
and matrix-vector contractions through `simulate._vecmat`. A coefficient
whose batch axis has stride 0 (np.broadcast_to's, as the LQ builder
returns A, B, sigma and the cost Hessians, and an affine control its
du/dx) is one matrix shared by every path, and is contracted once for
the batch: a matrix-vector step is one (B, d) @ (d, d) product, and with
a shared drift Jacobian J the second-order step's J'A + AJ and
`fundamental_matrix`'s Phi (I + dt J) are one (B*d, d) @ (d, d) product.
Sums over noise columns stay einsums.

`fundamental_matrix` accumulates per-step linearizations
Phi_i = (I + dt J_{n-1}) ... (I + dt J_i) with J the *partial* drift
Jacobian, so `feynman_kac_lean`'s reconstruction
a_i = Phi_i' (grad_terminal + C_i), C_i = C_{i+1} + dt Phi_i^{-T} d1_cost_i,
telescopes to exactly the lean recursion (same algebra, different
association order; agreement is floating-point tight, not just O(dt)).

Every solver is an anchor at node n plus one backward step, run by the
one sweep `_backward`, which also checks the values for non-finite entries
once. The walks that are not recursions (the matching losses, the
per-path and theta-gradients, the MSA step) read the stored batch through
one walker, `_walk`, in chunks of grid nodes. They contract du/dtheta in
the factored form `ControlModel.node_chunk` gives, an affine control's
feature matrix phi and its theta-index layout, and add the results at
the layout's columns. Adjoints of every kind come back as `Adjoints`,
propagators as `Propagators`; each holds a batch, or one path when solved
from one Trajectory or indexed out of a batch.
"""

from __future__ import annotations

import dataclasses
import functools
import operator

import numpy as np

from . import _io
from .errors import UnsupportedProblemError, ValidationError
from .simulate import (TimeGrid, Trajectory, TrajectoryBatch, _dot,
                       _non_finite, _time_major, _vecmat)

# Bound on the entries a zero-padded (rows, k, k * F) du/dtheta block would
# hold in one chunk of a frozen-batch walk, k times the layout's k * F
# entries a row. It admits 16 nodes of the trainer's 1,024 scalar paths,
# spreading each call's fixed cost thin, and keeps a chunk's temporaries
# cache-sized; a batch over it at one node is walked node by node. Sized
# by phi's F entries a row instead, chunks at d = k = 4 would grow k**2
# times, and larger ones there raised peak memory and slowed the MSA step.
_CHUNK_BLOCK = 32768

LEAN = "lean"
FULL = "full"
FULL_WITH_H = "full_with_h"
SECOND_ORDER = "second_order"
PROPAGATOR = "propagator"
_FIRST_ORDER = (LEAN, FULL, FULL_WITH_H)


class _Solved:
    """Per-path rows of one stored array; shared by the two result types.

    `row` is None for a batch, whose array is (B, n_steps+1, ...), and the
    row a single path came from otherwise, whose array is (n_steps+1, ...).
    Indexing a batch returns one path as the same class.
    """

    @property
    def _stacked(self):
        """The stored array as (B, n_steps+1, ...), one path as B = 1."""
        data = getattr(self, self._ARRAY)
        return data if self.row is None else data[None]

    def __len__(self):
        if self.row is not None:
            raise TypeError(f"one path of {type(self).__name__} has no len()")
        return getattr(self, self._ARRAY).shape[0]

    def __getitem__(self, index):
        row = range(len(self))[operator.index(index)]
        return dataclasses.replace(
            self, row=row, **{self._ARRAY: getattr(self, self._ARRAY)[row]})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclasses.dataclass(frozen=True, eq=False)
class Adjoints(_Solved):
    """Adjoint values along a batch or one path.

    values (B, n_steps+1, d) for the first-order kinds (lean, full,
    full_with_h) and (B, n_steps+1, d, d) for second_order; one path drops
    the leading B.
    """

    _ARRAY = "values"
    grid: TimeGrid
    values: np.ndarray
    kind: str
    row: int | None = None


@dataclasses.dataclass(frozen=True, eq=False)
class Propagators(_Solved):
    """Linearized flow maps to the horizon: matrices[:, i] ~ Phi_{t_i -> T},
    (B, n_steps+1, d, d), or (n_steps+1, d, d) for one path."""

    _ARRAY = "matrices"
    kind = PROPAGATOR  # a constant, so `_aligned` checks every slot alike
    grid: TimeGrid
    matrices: np.ndarray
    row: int | None = None


class _FrozenControl:
    """A control as the surrogate losses see it: zero state feedback.

    The matching losses treat the stored trajectory (and the control
    realized along it) as fixed data, so the adjoints they consume are
    solved with du/dx == 0. The backward solvers recognise this wrapper
    and leave every du/dx term out rather than contract zeros;
    `state_jacobian` still returns the zeros to any other caller.
    Everything else (u, du/dtheta, theta, n_params, ...) is the wrapped
    control's.
    """

    x_hessian_is_zero = True

    def __init__(self, control):
        self._inner = control

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def with_theta(self, theta):
        return _FrozenControl(self._inner.with_theta(theta))

    def state_jacobian(self, x, t):
        x, _ = self._point(x, t)
        return np.zeros((x.shape[0], self.k, self.d))

    def jacobians(self, x, t):
        du_dtheta, _ = self._inner.jacobians(x, t)
        return du_dtheta, self.state_jacobian(x, t)


def freeze_control(control):
    """View of `control` with zero state-Jacobian (stopgrad convention)."""
    return _FrozenControl(control)


def _batch_view(traj):
    """(grid, states, controls, increments, was_single)."""
    if isinstance(traj, TrajectoryBatch):
        return traj.grid, traj.states, traj.controls, traj.increments, False
    if isinstance(traj, Trajectory):
        return (traj.grid, traj.states[None], traj.controls[None],
                traj.noise.increments[None], True)
    raise ValidationError(f"expected Trajectory or TrajectoryBatch, "
                          f"got {type(traj).__name__}")


def _aligned(container, traj, name, kinds=_FIRST_ORDER):
    """`container`'s stored array as (B, n_steps+1, ...), one path as B = 1.

    Raises ValidationError unless it is a result of one of `kinds`, was
    solved on `traj`'s grid and holds exactly one entry per path of `traj`.
    """
    if not isinstance(container, _Solved) or container.kind not in kinds:
        got = getattr(container, "kind", type(container).__name__)
        raise ValidationError(f"{name} must hold {' or '.join(kinds)} "
                              f"values, got {got}")
    values = container._stacked
    _, states, _, _, _ = _batch_view(traj)
    want = (states.shape[0], traj.grid.n_steps + 1)
    if values.shape[:2] != want or container.grid != traj.grid:
        raise ValidationError(
            f"{name} {values.shape} on {container.grid} do not align with "
            f"{want[0]} path(s) on {traj.grid}")
    return values


def _backward(solver, traj, anchor, step, wrap):
    """One backward sweep along `traj`; the five solvers' shared loop.

    values[:, n] = anchor(X_N), then for i = n-1, ..., 0
        values[:, i] = step(i, x, u, t, dB_i, values[:, i+1])
    at the forward step's own point (x, u, t) = (X_i, u_i, t_i). The values
    are checked once after the sweep: a non-finite one raises
    SimulationError naming `solver`, the first bad node in backward order
    and its path. Returns wrap(grid, values), its one path for a
    Trajectory.
    """
    grid, states, controls, increments, single = _batch_view(traj)
    n, nodes = grid.n_steps, grid.nodes
    value = anchor(states[:, n])
    values = _time_major(n + 1, states.shape[0], *value.shape[1:])
    values[:, n] = value
    for i in range(n - 1, -1, -1):
        value = step(i, states[:, i], controls[:, i], float(nodes[i]),
                     increments[:, i], value)
        values[:, i] = value
    # min and max see every nan and inf without a full-size temporary
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        bad = ~np.isfinite(values).reshape(values.shape[:2] + (-1,)).all(
            axis=2)
        i = int(np.flatnonzero(bad.any(axis=0))[-1])
        path = (traj.noise.path_index if single
                else int(traj.path_indices[np.argmax(bad[:, i])]))
        raise _non_finite(solver, i, path)
    out = wrap(grid, values)
    return out[0] if single else out


def _walk(problem, control, traj, *stored, with_u=True):
    """Walk a frozen batch in chunks of grid nodes.

    Yields (lo, hi, t, x, u, layouts, phi, *rows) for the chunks [lo, hi)
    of nodes 0..n_steps-1, as node-major rows (row j*B + b is path b at
    node lo + j): x holds the stored X_i, (u, layouts, phi) is
    `control.node_chunk` at the current theta (u is None, and not
    evaluated, with with_u=False), and `rows` has one entry per
    node-aligned (B, >= n_steps, ...) array in `stored`. Callbacks take a
    chunk at t = t_lo, so a chunk is one node unless the problem is
    `time_homogeneous` and the control `affine`; then it holds as many
    nodes as keep B * k * (layout entries) within _CHUNK_BLOCK.
    """
    grid, states, _, _, _ = _batch_view(traj)
    n, batch = grid.n_steps, states.shape[0]
    times = grid.nodes.tolist()

    def chunk(x, lo, hi, with_u=with_u):
        if with_u:
            return control.node_chunk(x, times[lo:hi])
        return (None,) + control._du_dtheta(
            *control._chunk_point(x, times[lo:hi]))

    size = 1
    if problem.time_homogeneous and control.affine:
        row = control.k * chunk(states[:1, 0], 0, 1, with_u=False)[1].size
        size = max(1, _CHUNK_BLOCK // (batch * row))
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        rows = [arr[:, lo:hi].swapaxes(0, 1).reshape((-1,) + arr.shape[2:])
                for arr in (states,) + stored]
        yield (lo, hi, times[lo], rows[0], *chunk(rows[0], lo, hi),
               *rows[1:])


def _per_node(rows, lo, hi):
    """Chunk rows (c*B, ...) as (c, B, ...)."""
    return rows.reshape((hi - lo, -1) + rows.shape[1:])


def _add_per_path(grad, lo, hi, layouts, phi, v, scale=None):
    """Add a chunk's per-path du/dtheta' v, times `scale` if given, into
    the parameter-major (P, B) buffer `grad`: phi[b, f] v[b, c] of node
    j's path b goes to grad[layouts[j, c, f], b], one contiguous row at a
    time. A per-component phi (one node) adds its sum over components at
    its layout's first row."""
    if phi.ndim == 3:
        terms = np.einsum("bcp,bc->bp", phi, v).T
        grad[layouts[0, 0]] += terms if scale is None else scale * terms
        return
    for layout, phi_j, v_j in zip(layouts, _per_node(phi, lo, hi),
                                  _per_node(v, lo, hi)):
        for (c, f), row in np.ndenumerate(layout):
            terms = phi_j[:, f] * v_j[:, c]
            grad[row] += terms if scale is None else scale * terms


def _node_sums(phi, v, lo, hi):
    """du/dtheta' v summed over each node's paths, (c, k, F); (1, 1, P)
    for a per-component phi (one node), its components summed too."""
    if phi.ndim == 3:
        return np.einsum("nbcp,nbc->np", _per_node(phi, lo, hi),
                         _per_node(v, lo, hi))[:, None]
    return np.einsum("nbf,nbc->ncf", _per_node(phi, lo, hi),
                     _per_node(v, lo, hi))


def _scatter(target, layouts, values):
    """target[layouts[j]] += values[j], node after node of a chunk, with
    values as `_node_sums` gives them. Nodes in one interval name the
    same columns, which `np.add.at` adds in turn. A per-component phi's
    values come summed over components, and its layout rows all name the
    same columns: its first row places them."""
    np.add.at(target, layouts[:, :values.shape[1]], values)


def _lean_hamiltonian(problem, x, u, t, a):
    """Per-path f + <b, a>."""
    return (problem.running_cost(x, u, t)
            + np.einsum("bi,bi->b", problem.drift(x, u, t), a))


def _lean_u_gradient(problem, x, u, t, a):
    """Per-path d(f + <b, a>)/du = d2_cost + d2_drift' a."""
    bundle = problem.derivatives
    return (np.asarray(bundle.d2_cost(x, u, t), dtype=np.float64)
            + _vecmat(a, bundle.d2_drift(x, u, t)))


def _gradient_anchor(problem):
    """a_N = grad_terminal(X_N), the anchor of the vector adjoints."""
    return lambda x_n: np.asarray(problem.derivatives.grad_terminal(x_n),
                                  dtype=np.float64)


def solve_lean_adjoint(problem, control, traj):
    """Partial-derivative adjoint; terminal anchor grad_terminal(X_N).

    Accepts one Trajectory or a TrajectoryBatch and returns `Adjoints` of
    kind "lean" for the path or the batch.
    """
    bundle = problem.derivatives
    dt = _batch_view(traj)[0].dt

    def step(i, x, u, t, db, a):
        return a + dt * (_vecmat(a, bundle.d1_drift(x, u, t))
                         + bundle.d1_cost(x, u, t))

    return _backward("lean adjoint", traj, _gradient_anchor(problem), step,
                     functools.partial(Adjoints, kind=LEAN))


def _total_first_order(problem, control, x, u, t):
    """Total drift Jacobian, total cost gradient, diffusion couplings G.

    Returns (jac_x (B,d,d), grad_f (B,d), g (B,m,d,d), du_dx (B,k,d)) where
    g[b,j] is the j-th noise column's total state Jacobian, or None when
    no diffusion derivative enters it. A frozen control's du_dx is zero by
    construction: it comes back as None, and the partial derivatives are
    the total ones. When d1_drift, d2_drift and du_dx are each one matrix
    shared by every path (a stride-0 batch axis), jac_x is too.
    """
    bundle = problem.derivatives
    g = (None if bundle.dsigma_dx is None
         else np.asarray(bundle.dsigma_dx(x, u, t), dtype=np.float64))
    if isinstance(control, _FrozenControl):
        return (np.asarray(bundle.d1_drift(x, u, t), dtype=np.float64),
                bundle.d1_cost(x, u, t), g, None)
    du_dx = np.asarray(control.state_jacobian(x, t), dtype=np.float64)
    d1_drift = np.asarray(bundle.d1_drift(x, u, t), dtype=np.float64)
    d2_drift = np.asarray(bundle.d2_drift(x, u, t), dtype=np.float64)
    if d1_drift.strides[0] == d2_drift.strides[0] == du_dx.strides[0] == 0:
        jac_x = np.broadcast_to(d1_drift[0] + _dot(d2_drift[0], du_dx[0]),
                                d1_drift.shape)
    else:
        jac_x = d1_drift + _dot(d2_drift, du_dx)
    grad_f = bundle.d1_cost(x, u, t) + _vecmat(bundle.d2_cost(x, u, t),
                                               du_dx)
    if bundle.dsigma_du is not None:
        coupled = _dot(bundle.dsigma_du(x, u, t), du_dx[:, None])
        g = coupled if g is None else g + coupled
    return jac_x, grad_f, g, du_dx


def solve_first_order_adjoint(problem, control, traj, h_term=None):
    """Total-derivative adjoint with diffusion (and optional h) coupling.

    The step reuses the stored Brownian increments of the trajectory:
        c_j  = G_j' a_{i+1} (+ grad h_j)
        a_i  = a_{i+1} + dt * (jac_x' a_{i+1} + grad_f) + sum_j c_j dB_i^j
    with every coefficient at (X_i, u_i, t_i). This is the transpose of
    the forward step's linearization, so a_0 is the gradient of the
    simulated pathwise cost for the realized increments. (A continuum-
    limit Ito compensation -dt G_j'c_j would bias a_0 by O(1) on
    multiplicative noise and is omitted; the increments themselves carry
    that correction.) With h_term, the functional being differentiated
    gains sum_i h(X_i, t_i) . dB_i. kind is "full" or "full_with_h".
    """
    if h_term is not None and h_term.grad is None:
        raise ValidationError("h_term requires a grad callback")
    kind = FULL_WITH_H if h_term is not None else FULL
    dt = _batch_view(traj)[0].dt

    def step(i, x, u, t, db, a):
        jac_x, grad_f, g, _ = _total_first_order(problem, control, x, u, t)
        a_new = a + dt * (_vecmat(a, jac_x) + grad_f)
        # c_j is identically zero without G and h: no noise coupling
        c = None if g is None else np.einsum("bjip,bi->bjp", g, a)
        if h_term is not None:
            grad_h = np.asarray(h_term.grad(x, t), dtype=np.float64)
            c = grad_h if c is None else c + grad_h
        return a_new if c is None else a_new + np.einsum("bjp,bj->bp", c, db)

    return _backward(f"{kind} adjoint", traj, _gradient_anchor(problem),
                     step, functools.partial(Adjoints, kind=kind))


def _stack_dot(mats, mat):
    """mats_b @ mat for a stack (B, r, s) and one (s, q) matrix, as one
    (B*r, s) @ (s, q) product."""
    return _dot(mats.reshape(-1, mats.shape[-1]), mat).reshape(
        mats.shape[:-1] + mat.shape[-1:])


def _total_hessian(lead, xx, xu, uu, du_dx):
    """xx + xu du + (xu du)' + du' uu du, from the terms that are present.

    `lead` is the number of axes between the batch axis and the last two
    (0 for the cost, 1 for drift components, 2 for diffusion entries).
    Absent (None) terms are identically zero and are left out rather than
    built and contracted, as is every du term when du_dx is None (a frozen
    control); None when no term is left.
    """
    if du_dx is None:
        return xx
    terms = [] if xx is None else [xx]
    du = du_dx.reshape(du_dx.shape[:1] + (1,) * lead + du_dx.shape[1:])
    if xu is not None:
        mixed = _dot(xu, du)
        terms += [mixed, np.swapaxes(mixed, -1, -2)]
    if uu is not None:
        terms.append(_dot(_dot(np.swapaxes(du, -1, -2), uu), du))
    return functools.reduce(operator.add, terms) if terms else None


def _total_second_order(problem, control, x, u, t, du_dx):
    """Total Hessians of cost, drift components, and diffusion entries.

    Each is None when the bundle leaves all of its entries out.
    """
    so = problem.derivatives.second_order

    def entry(fn):
        return None if fn is None else np.asarray(fn(x, u, t), dtype=np.float64)

    hess_f = _total_hessian(0, entry(so.cost_hess_xx), entry(so.cost_hess_xu),
                            entry(so.cost_hess_uu), du_dx)
    hess_b = _total_hessian(1, entry(so.drift_hess_xx),
                            entry(so.drift_hess_xu), entry(so.drift_hess_uu),
                            du_dx)
    hess_s = _total_hessian(2, entry(so.sigma_hess_xx),
                            entry(so.sigma_hess_xu), entry(so.sigma_hess_uu),
                            du_dx)
    return hess_f, hess_b, hess_s


def solve_second_order_adjoint(problem, control, traj, first):
    """Matrix adjoint A_i, anchored at hess_terminal(X_N).

    Backward step (coefficients at (X_i, u_i, t_i), stored increments),
    with per-step symmetrization A <- (A + A')/2:

        lyap = jac_x' A + A jac_x + sum_j G_j' A G_j + hess_f
               + sum_i a^i hess_b_i + 0.5 * sum_{j,i} a^i hess_s_{ij} G_j
        U_j  = A G_j + G_j' A + sum_i a^i hess_s_{ij}
        A_i  = A_{i+1} + dt * lyap + sum_j U_j dB_i^j

    Requires derivatives.second_order and a control with d2u/dx2 == 0.
    `first` holds first-order `Adjoints` (lean, full or full_with_h)
    along `traj`.
    """
    if problem.derivatives.second_order is None:
        raise UnsupportedProblemError(
            "problem has no second-order derivative bundle")
    if not control.x_hessian_is_zero:
        raise UnsupportedProblemError(
            f"control family {control.family!r} has nonzero state Hessian; "
            f"the matrix adjoint assembles total derivatives only for "
            f"affine-in-x families")
    first_values = _aligned(first, traj, "first")
    bundle = problem.derivatives
    dt = _batch_view(traj)[0].dt

    def symmetric(a_mat):
        return 0.5 * (a_mat + a_mat.transpose(0, 2, 1))

    def step(i, x, u, t, db, a_mat):
        jac_x, _, g, du_dx = _total_first_order(problem, control, x, u, t)
        hess_f, hess_b, hess_s = _total_second_order(
            problem, control, x, u, t, du_dx)
        a_vec = first_values[:, i + 1]
        if jac_x.strides[0] == 0:
            # A is symmetric (every step symmetrizes it), so J'A = (AJ)'
            a_jac = _stack_dot(a_mat, jac_x[0])
            lyap = np.swapaxes(a_jac, 1, 2) + a_jac
        else:
            lyap = (_dot(np.swapaxes(jac_x, 1, 2), a_mat)
                    + _dot(a_mat, jac_x))
        # Absent terms are zero; skipping them keeps the sums' order. With
        # G = None every term of U_j but sum_i a^i hess_s_ij vanishes.
        u_noise = None
        if g is not None:
            a_g = _dot(a_mat[:, None], g)
            lyap = lyap + np.einsum("bjip,bjiq->bpq", g, a_g)
            u_noise = a_g + _dot(np.swapaxes(g, 2, 3), a_mat[:, None])
        if hess_f is not None:
            lyap = lyap + hess_f
        if hess_b is not None:
            lyap = lyap + _dot(a_vec[:, None], hess_b.reshape(
                hess_b.shape[:2] + (-1,))).reshape(a_mat.shape)
        if hess_s is not None:
            a_hs = np.einsum("bi,bjipq->bjpq", a_vec, hess_s)
            if g is not None:
                lyap = lyap + 0.5 * np.einsum("bjpr,bjrq->bpq", a_hs, g)
            u_noise = a_hs if u_noise is None else u_noise + a_hs
        a_new = a_mat + dt * lyap
        if u_noise is not None:
            a_new = a_new + np.einsum("bjpq,bj->bpq", u_noise, db)
        return symmetric(a_new)

    return _backward(
        "second-order adjoint", traj,
        lambda x_n: symmetric(np.asarray(bundle.hess_terminal(x_n),
                                         dtype=np.float64)),
        step, functools.partial(Adjoints, kind=SECOND_ORDER))


def fundamental_matrix(problem, control, traj):
    """Per-step linearized flow products toward the horizon.

    matrices[i] = (I + dt J_{n-1}) ... (I + dt J_i) with J the partial
    drift Jacobian d1_drift at the lean solver's evaluation points; for a
    constant Jacobian this converges to expm((T - t_i) J). matrices[n] = I.
    Returns `Propagators` for the path or the batch.
    """
    bundle = problem.derivatives
    dt = _batch_view(traj)[0].dt
    eye = np.eye(problem.d)

    def step(i, x, u, t, db, phi):
        jac = np.asarray(bundle.d1_drift(x, u, t), dtype=np.float64)
        if jac.strides[0] == 0:
            return _stack_dot(phi, eye + dt * jac[0])
        return _dot(phi, eye + dt * jac)

    return _backward(
        "fundamental matrix", traj,
        lambda x_n: np.broadcast_to(eye, (len(x_n),) + eye.shape).copy(),
        step, Propagators)


def feynman_kac_lean(problem, control, traj, propagators):
    """Reconstruct the lean adjoint from flow products.

    a_i = Phi_i' (grad_terminal(X_N) + C_i) with C_N = 0 and
    C_i = C_{i+1} + dt * Phi_i^{-T} d1_cost_i; algebraically identical
    to the lean recursion (the running source is transported instead of
    accumulated step by step). `propagators` are `fundamental_matrix`'s
    `Propagators` along `traj`.
    """
    mats = _aligned(propagators, traj, "propagators", (PROPAGATOR,))
    bundle = problem.derivatives
    dt = _batch_view(traj)[0].dt
    g_n, c_run = None, 0.0

    def anchor(x_n):
        nonlocal g_n
        g_n = np.asarray(bundle.grad_terminal(x_n), dtype=np.float64)
        return g_n

    def step(i, x, u, t, db, a):
        nonlocal c_run
        src = np.asarray(bundle.d1_cost(x, u, t), dtype=np.float64)
        phi_t = mats[:, i].transpose(0, 2, 1)
        try:
            c_run = c_run + dt * np.linalg.solve(phi_t, src[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ValidationError(
                f"singular propagator matrix at step {i}; the linearized "
                f"flow is not invertible on this path")
        return np.einsum("bji,bj->bi", mats[:, i], g_n + c_run)

    return _backward("Feynman-Kac lean adjoint", traj, anchor, step,
                     functools.partial(Adjoints, kind=LEAN))


def theta_gradient_via_adjoint(problem, control, traj, adjoint):
    """Pathwise parameter gradient of the discrete cost functional.

    Sum over the trajectory's own steps, coefficients at (X_i, u_i, t_i):
        grad = sum_i du_dtheta_i' ( dt * (d2_cost_i + d2_drift_i' a_{i+1})
                                    + sum_j dsigma_du_{ij}' a_{i+1} dB_i^j )
    where a is a first-order adjoint along the same trajectory. Pairing
    the step's coefficients with the adjoint at the step's far end mirrors
    how a parameter bump actually propagates through the forward scheme,
    so with the total-derivative adjoint this is the gradient of the
    simulated cost itself. Returns (P,) for a single trajectory, (B, P)
    for a batch.
    """
    grid, states, controls, increments, single = _batch_view(traj)
    values = _aligned(adjoint, traj, "adjoint")
    dsigma_du, dt = problem.derivatives.dsigma_du, grid.dt
    grad = np.zeros((control.n_params, states.shape[0]))
    for lo, hi, t, x, _, layouts, phi, u, a_next, db in _walk(
            problem, control, traj, controls, values[:, 1:], increments,
            with_u=False):
        v = dt * _lean_u_gradient(problem, x, u, t, a_next)
        if dsigma_du is not None:
            v = v + np.einsum("bjic,bi,bj->bc", dsigma_du(x, u, t), a_next,
                              db)
        _add_per_path(grad, lo, hi, layouts, phi, v)
    return grad[:, 0] if single else grad.T.copy()


def write_adjoints_csv(adjoints, path):
    """Write stored values as rows (path, i, t, a_*); one path is labelled
    with the batch row it came from."""
    values = adjoints._stacked
    first = adjoints.row or 0
    nodes = adjoints.grid.nodes
    header = ["path", "i", "t"] + [
        f"a_{j}" for j in range(int(np.prod(values.shape[2:])))]

    def rows():
        for p, path_values in enumerate(values, start=first):
            for i, value in enumerate(path_values):
                yield [p, i, float(nodes[i]), *np.ravel(value)]

    _io.write_csv(path, header, rows())
