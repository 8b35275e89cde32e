"""Controlled-diffusion problem definitions.

A problem bundles the data of a finite-horizon stochastic control task

    dX_t = drift(X_t, u_t, t) dt + diffusion(X_t, u_t, t) dB_t,   X_0 ~ P0,
    cost  = E[ integral_0^T running_cost(X_t, u_t, t) dt + terminal_cost(X_T) ]

together with analytic first (and optionally second) derivatives of the
coefficients. All callbacks are vectorized over a leading batch axis:

    drift(x, u, t)        (B, d), (B, k), float -> (B, d)
    diffusion(x, u, t)    -> (B, d, m)
    running_cost(x, u, t) -> (B,)
    terminal_cost(x)      -> (B,)
    initial_sampler(seed, path_index) -> (d,)

Derivative conventions (see DerivativeBundle): Jacobians index output
first, differentiation direction last; diffusion derivatives are per
noise column, column index first.

Analytic derivatives are trusted but verified: `validate_derivatives`
compares every bundle entry against central finite differences at random
probe points, and the problem constructors run it before returning. The
capability flags are never declared: every ProblemSpec probes them from
its callbacks when it is constructed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from . import _rng
from .errors import ValidationError
from .simulate import _dot, _positive_count, _positive_horizon


@dataclasses.dataclass(frozen=True)
class SecondOrderBundle:
    """Second derivatives of the coefficients, for matrix-adjoint work.

    Entries left as None are asserted (and validated) to be identically
    zero. Index conventions, with i the output component, p/q state
    directions, c/e control directions, j the noise column:

        drift_hess_xx(x,u,t)[b,i,p,q] = d2 drift_i / dx_p dx_q
        drift_hess_xu(x,u,t)[b,i,p,c] = d2 drift_i / dx_p du_c
        drift_hess_uu(x,u,t)[b,i,c,e] = d2 drift_i / du_c du_e
        cost_hess_xx(x,u,t)[b,p,q]    = d2 running_cost / dx_p dx_q
        cost_hess_xu(x,u,t)[b,p,c]    = d2 running_cost / dx_p du_c
        cost_hess_uu(x,u,t)[b,c,e]    = d2 running_cost / du_c du_e
        sigma_hess_xx(x,u,t)[b,j,i,p,q] = d2 sigma_ij / dx_p dx_q
        sigma_hess_xu(x,u,t)[b,j,i,p,c] = d2 sigma_ij / dx_p du_c
        sigma_hess_uu(x,u,t)[b,j,i,c,e] = d2 sigma_ij / du_c du_e
    """

    drift_hess_xx: Optional[Callable] = None
    drift_hess_xu: Optional[Callable] = None
    drift_hess_uu: Optional[Callable] = None
    cost_hess_xx: Optional[Callable] = None
    cost_hess_xu: Optional[Callable] = None
    cost_hess_uu: Optional[Callable] = None
    sigma_hess_xx: Optional[Callable] = None
    sigma_hess_xu: Optional[Callable] = None
    sigma_hess_uu: Optional[Callable] = None


@dataclasses.dataclass(frozen=True)
class DerivativeBundle:
    """Analytic first derivatives of the problem coefficients.

        d1_drift(x,u,t)[b,i,p]      = d drift_i / dx_p
        d2_drift(x,u,t)[b,i,c]      = d drift_i / du_c
        d1_cost(x,u,t)[b,p]         = d running_cost / dx_p
        d2_cost(x,u,t)[b,c]         = d running_cost / du_c
        grad_terminal(x)[b,p]       = d terminal_cost / dx_p
        hess_terminal(x)[b,p,q]     = d2 terminal_cost / dx_p dx_q
        dsigma_dx(x,u,t)[b,j,i,p]   = d sigma_ij / dx_p   (j = noise column)
        dsigma_du(x,u,t)[b,j,i,c]   = d sigma_ij / du_c

    dsigma_dx and dsigma_du may each be left as None, meaning identically
    zero: the solvers then skip the terms they would multiply, and
    `validate_derivatives` checks the finite differences of the diffusion
    against zero as for any other entry. second_order is optional and only
    required by the matrix-adjoint solver and its tests.
    """

    d1_drift: Callable
    d2_drift: Callable
    d1_cost: Callable
    d2_cost: Callable
    grad_terminal: Callable
    hess_terminal: Callable
    dsigma_dx: Optional[Callable] = None
    dsigma_du: Optional[Callable] = None
    second_order: Optional[SecondOrderBundle] = None


@dataclasses.dataclass(frozen=True)
class HTerm:
    """Noise-coupled running term sum_i h(X_i, t_i) . dB_i added to the cost.

        value(x, t) -> (B, m)
        grad(x, t)  -> (B, m, d), grad[b,j,p] = d h_j / dx_p
    """

    value: Callable
    grad: Optional[Callable] = None


@dataclasses.dataclass(frozen=True)
class LQData:
    """Matrices of a linear-quadratic instance (kept for closed-form work)."""

    a_mat: np.ndarray
    b_mat: np.ndarray
    sigma: np.ndarray
    q_run: np.ndarray
    q_term: np.ndarray
    x0_mean: np.ndarray
    x0_cov: np.ndarray


@dataclasses.dataclass(frozen=True)
class OUParams:
    """Ornstein-Uhlenbeck tilt parameters: dX = -rate X dt + sqrt(2 rate) dB,
    terminal cost 0.5 * tilt * x^2."""

    rate: float
    tilt: float


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """A controlled diffusion with costs and analytic derivatives.

    Construction checks the sizes and horizon and probes the capability
    flags from the callbacks (they cannot be passed in; a copy made with
    `dataclasses.replace` probes them again):
        diffusion_time_only: sigma(x,u,t) does not depend on (x,u).
        control_affine_quadratic: drift affine in u and
            running_cost(x,u,t) = base(x,t) + 0.5*|u|^2, with
            diffusion_time_only also set.
        time_homogeneous: no callback that takes t depends on it, so
            the frozen-batch walks may pass several grid nodes in one
            call. The probe compares outputs at a few sampled times and
            can miss t-dependence between them.
        diffusion_ignores_control: sigma(x,u,t) does not depend on u (set
            with diffusion_time_only), so the lean Hamiltonian is the
            one a control's gradient needs; the trainer refuses lean_am
            otherwise.

    `sample_initial(seed, p)` draws path p's initial state through the
    per-path `initial_sampler`; `sample_initial_batch(seed, start, stop)`
    draws paths [start, stop) into one (stop - start, d) array with the
    same bits per row. The built-in problems' Gaussian sampler draws the
    range in one call; any other sampler, including one swapped in with
    `dataclasses.replace`, is called path by path.
    """

    d: int
    k: int
    m: int
    horizon: float
    drift: Callable
    diffusion: Callable
    running_cost: Callable
    terminal_cost: Callable
    initial_sampler: Callable
    derivatives: DerivativeBundle
    diffusion_time_only: bool = dataclasses.field(init=False)
    control_affine_quadratic: bool = dataclasses.field(init=False)
    time_homogeneous: bool = dataclasses.field(init=False)
    diffusion_ignores_control: bool = dataclasses.field(init=False)
    name: str = "custom"
    lq_data: Optional[LQData] = None
    ou_params: Optional[OUParams] = None

    def __post_init__(self):
        for size in ("d", "k", "m"):
            object.__setattr__(self, size,
                               _positive_count(getattr(self, size), size))
        object.__setattr__(self, "horizon", _positive_horizon(self.horizon))
        rng = _rng.philox_generator(0, 1, _rng.PROBE)
        dto = _probe_diffusion_fixed(self, rng)
        object.__setattr__(self, "diffusion_time_only", dto)
        object.__setattr__(self, "control_affine_quadratic",
                           dto and _probe_control_affine_quadratic(self, rng))
        object.__setattr__(self, "time_homogeneous",
                           _probe_time_homogeneous(self, rng))
        object.__setattr__(self, "diffusion_ignores_control",
                           dto or _probe_diffusion_fixed(self, rng, False))

    def sample_initial(self, seed, path_index):
        """Draw one initial state; (seed, path_index) fully determine it."""
        x0 = np.asarray(self.initial_sampler(seed, path_index), dtype=np.float64)
        if x0.shape != (self.d,):
            raise ValidationError(
                f"initial_sampler returned shape {x0.shape}, expected ({self.d},)"
            )
        return x0

    def sample_initial_batch(self, seed, start, stop):
        """Initial states of paths [start, stop) as (stop - start, d); row
        j is `sample_initial(seed, start + j)`. Seed and path indices are
        checked once, before anything is drawn."""
        seed, first = _rng._range_keys(seed, start, stop, _rng.INITIAL_STATE)
        count = stop - start
        if isinstance(self.initial_sampler, _GaussianSampler):
            return self.initial_sampler.draw_range(seed, first, count)
        x0 = np.empty((count, self.d))
        for j in range(count):
            x0[j] = self.sample_initial(seed, start + j)
        return x0


class _GaussianSampler:
    """x0 = mean + chol z, z ~ N(0, I) from the path's INITIAL_STATE
    stream: the built-in problems' `initial_sampler`."""

    def __init__(self, mean, chol):
        self.mean, self.chol = mean, chol

    def __call__(self, seed, path_index):
        gen = _rng._rekeyed(seed, path_index, _rng.INITIAL_STATE)
        return self.mean + self.chol @ gen.standard_normal(self.mean.size)

    def draw_range(self, seed, first, count):
        """`count` paths from the key words `_rng._range_keys` gave. The
        stacked matmul repeats `__call__`'s per-path product bit for bit
        (z @ chol.T would not); at d = 1 it is one product per path."""
        z = np.empty((count, self.mean.size))
        _rng._fill_normals(z, seed, first)
        if self.mean.size == 1:
            return self.mean + _dot(z, self.chol)
        return self.mean + np.matmul(self.chol, z[..., None])[..., 0]


# ---------------------------------------------------------------------------
# finite-difference validation


def _central_diff(fn, z, step):
    """Columns of d fn / dz by central differences; fn maps (n,) -> array."""
    z = np.asarray(z, dtype=np.float64)
    cols = []
    for j in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[j] += step
        zm[j] -= step
        cols.append((fn(zp) - fn(zm)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _check_close(entry, analytic, fd, rtol, probe_desc):
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    if analytic.shape != fd.shape:
        raise ValidationError(
            f"{entry}: shape {analytic.shape} does not match "
            f"finite-difference shape {fd.shape} at {probe_desc}"
        )
    scale = np.maximum(1.0, np.abs(analytic))
    err = np.abs(analytic - fd)
    if not np.all(err <= rtol * scale):
        worst = float(np.max(err / scale))
        raise ValidationError(
            f"{entry} disagrees with finite differences at {probe_desc}: "
            f"max scaled error {worst:.3e} (tolerance {rtol:.1e})"
        )


def validate_derivatives(problem, n_probes=32, seed=0, step=1e-5, rtol=1e-5):
    """Check every derivative-bundle entry by probing.

    Draws `n_probes` points (x, u ~ N(0,1), t ~ U(0, horizon)) and compares
    each analytic derivative against a central finite difference of the
    callback it differentiates. Second-order entries, when a
    SecondOrderBundle is present, are checked against finite differences of
    the first-order entries; entries left as None are checked to be actually
    zero, or refused if required. The capability flags are not checked
    here: ProblemSpec probes them at construction.

    Raises ValidationError naming the offending entry and probe point.
    """
    rng = _rng.philox_generator(seed, 0, _rng.PROBE)
    for p in range(n_probes):
        x = rng.standard_normal(problem.d)
        u = rng.standard_normal(problem.k)
        t = float(rng.uniform(0.0, problem.horizon))
        desc = f"probe {p} (t={t:.6f})"
        for row in _derivative_checks(problem, x, u, t, step):
            value = _check_entry(*row, x[None, :], u[None, :], t, rtol, desc)
            if row[0] == "hess_terminal" and not np.allclose(
                    value, value.T, atol=1e-12):
                raise ValidationError(f"hess_terminal not symmetric at {desc}")
    _validate_sampler(problem)


def _derivative_checks(problem, x, u, t, step):
    """Rows (entry, fn(x, u, t), zero_shape, finite differences), in check
    order, for every bundle entry at one probe point. zero_shape None marks
    a required entry. A first-order entry declared zero (None) has zero
    differences, so its Hessians are checked against zero without probing
    it. Rows are yielded lazily: grad_terminal is checked before
    hess_terminal differentiates it."""
    d, k, m = problem.d, problem.k, problem.m
    bundle = problem.derivatives
    xb, ub = x[None, :], u[None, :]

    def fd_x(fn, shape=None):
        if fn is None:
            return np.zeros(shape)
        return _central_diff(lambda z: fn(z[None, :], ub, t)[0], x, step)

    def fd_u(fn, shape=None):
        if fn is None:
            return np.zeros(shape)
        return _central_diff(lambda w: fn(xb, w[None, :], t)[0], u, step)

    def of_x(fn):
        return None if fn is None else (lambda xs, us, ts: fn(xs))

    grad_terminal = of_x(bundle.grad_terminal)
    yield "d1_drift", bundle.d1_drift, None, fd_x(problem.drift)
    yield "d2_drift", bundle.d2_drift, None, fd_u(problem.drift)
    yield "d1_cost", bundle.d1_cost, None, fd_x(problem.running_cost)
    yield "d2_cost", bundle.d2_cost, None, fd_u(problem.running_cost)
    yield ("grad_terminal", grad_terminal, None,
           fd_x(of_x(problem.terminal_cost)))
    yield ("hess_terminal", of_x(bundle.hess_terminal), None,
           fd_x(grad_terminal))
    # diffusion jacobians: fd gives (d, m, n); bundle stores (m, d, n)
    yield ("dsigma_dx", bundle.dsigma_dx, (m, d, d),
           np.moveaxis(fd_x(problem.diffusion), 1, 0))
    yield ("dsigma_du", bundle.dsigma_du, (m, d, k),
           np.moveaxis(fd_u(problem.diffusion), 1, 0))

    so = bundle.second_order
    if so is None:
        return
    for entry, fd, first, shape in (
            ("drift_hess_xx", fd_x, bundle.d1_drift, (d, d, d)),
            ("drift_hess_xu", fd_u, bundle.d1_drift, (d, d, k)),
            ("drift_hess_uu", fd_u, bundle.d2_drift, (d, k, k)),
            ("cost_hess_xx", fd_x, bundle.d1_cost, (d, d)),
            ("cost_hess_xu", fd_u, bundle.d1_cost, (d, k)),
            ("cost_hess_uu", fd_u, bundle.d2_cost, (k, k)),
            ("sigma_hess_xx", fd_x, bundle.dsigma_dx, (m, d, d, d)),
            ("sigma_hess_xu", fd_u, bundle.dsigma_dx, (m, d, d, k)),
            ("sigma_hess_uu", fd_u, bundle.dsigma_du, (m, d, k, k))):
        yield entry, getattr(so, entry), shape, fd(first, shape)


def _check_entry(entry, fn, zero_shape, fd, xb, ub, t, rtol, desc):
    """Compare a bundle entry at one probe with `fd` and return its value;
    an optional entry left as None is identically zero and is labelled so
    on failure."""
    if fn is not None:
        value = np.asarray(fn(xb, ub, t), dtype=np.float64)[0]
        _check_close(entry, value, fd, rtol, desc)
        return value
    if zero_shape is None:
        raise ValidationError(f"{entry} is required")
    _check_close(f"{entry} (declared zero)", np.zeros(zero_shape), fd, rtol,
                 desc)


def _probe_diffusion_fixed(problem, rng, vary_x=True):
    """sigma is the same across draws of u, and of x with vary_x, at each
    of a few sampled times."""
    for _ in range(4):
        t = float(rng.uniform(0.0, problem.horizon))
        x = None if vary_x else rng.standard_normal((1, problem.d))
        ref = None
        for _ in range(4):
            if vary_x:
                x = rng.standard_normal((1, problem.d))
            u = rng.standard_normal((1, problem.k))
            sig = np.asarray(problem.diffusion(x, u, t), dtype=np.float64)
            if ref is None:
                ref = sig
            elif not np.array_equal(ref, sig):
                return False
    return True


def _probe_control_affine_quadratic(problem, rng):
    d, k = problem.d, problem.k
    zero_x = np.zeros((1, d))
    for _ in range(4):
        t = float(rng.uniform(0.0, problem.horizon))
        u = rng.standard_normal((1, k))

        # Exactness legs at x = 0, where the u-independent parts vanish.
        half_usq = 0.5 * np.einsum("bk,bk->b", u, u)
        base = problem.running_cost(zero_x, np.zeros((1, k)), t)
        if not np.array_equal(problem.running_cost(zero_x, u, t) - base, half_usq):
            return False
        b0 = problem.drift(zero_x, np.zeros((1, k)), t)
        if not np.array_equal(problem.drift(zero_x, 2.0 * u, t) - b0,
                              2.0 * (problem.drift(zero_x, u, t) - b0)):
            return False

        # Tolerance legs at random x.
        x = rng.standard_normal((1, d))
        du = (problem.running_cost(x, u, t)
              - problem.running_cost(x, np.zeros((1, k)), t))
        if not np.allclose(du, half_usq, atol=1e-12, rtol=1e-12):
            return False
        b0 = problem.drift(x, np.zeros((1, k)), t)
        lin = (problem.drift(x, 2.0 * u, t) - b0
               - 2.0 * (problem.drift(x, u, t) - b0))
        if not np.allclose(lin, 0.0, atol=1e-12):
            return False
    return True


def _probe_time_homogeneous(problem, rng):
    bundle = problem.derivatives
    entries = {**vars(bundle), **vars(bundle.second_order or bundle)}
    fns = [problem.drift, problem.diffusion, problem.running_cost] + [
        fn for name, fn in entries.items() if callable(fn)
        and name not in ("grad_terminal", "hess_terminal")]
    for _ in range(4):
        x = rng.standard_normal((1, problem.d))
        u = rng.standard_normal((1, problem.k))
        times = rng.uniform(0.0, problem.horizon, 3).tolist()
        for fn in fns:
            ref = np.asarray(fn(x, u, times[0]))
            if not all(np.array_equal(ref, fn(x, u, t)) for t in times[1:]):
                return False
    return True


def _validate_sampler(problem):
    a = problem.sample_initial(12345, 7)
    b = problem.sample_initial(12345, 7)
    if not np.array_equal(a, b):
        raise ValidationError("initial_sampler is not deterministic in (seed, path)")
    if not np.all(np.isfinite(a)):
        raise ValidationError("initial_sampler returned non-finite values")


# ---------------------------------------------------------------------------
# constructors


def _finite(value, name):
    """`value` as a float64 array; ValidationError naming it if not finite."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return arr


def _as_matrix(value, shape, name):
    arr = np.atleast_2d(_finite(value, name))
    if arr.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    arrel = arr.copy()
    arrel.setflags(write=False)
    return arrel


def _check_sym_psd(mat, name):
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, float(np.abs(mat).max()))):
        raise ValidationError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(mat)
    if w.min() < -1e-10 * max(1.0, float(w.max())):
        raise ValidationError(f"{name} must be positive semidefinite "
                              f"(min eigenvalue {w.min():.3e})")


def _shared(mat):
    """Callback (x, ...) -> `mat` for every row of x, as a read-only
    np.broadcast_to view: its batch axis has stride 0, so the solvers
    contract `mat` once for the batch. The view is reused while the
    batch size stays the same: building one takes about 3 us (2-vCPU x86
    machine, numpy 2.4), more than the 4 x 4 contraction it feeds."""
    last = np.broadcast_to(mat, (0,) + mat.shape)

    def rows(x, *_):
        nonlocal last
        view = last
        if len(view) != len(x):
            view = last = np.broadcast_to(mat, (len(x),) + mat.shape)
        return view

    return rows


def _quadratic(x, mat):
    """Per-row x_b' mat x_b, as the row-dot of x mat with x."""
    return np.einsum("bi,bi->b", _dot(x, mat), x)


def _psd_factor(cov):
    """L with L L^T = cov, valid for singular PSD matrices."""
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)[None, :]


def make_lq_problem(a_mat, b_mat, sigma, q_run, q_term, horizon,
                    x0_mean=None, x0_cov=None):
    """Linear dynamics dX = (A x + B u) dt + sigma dB with quadratic costs
    0.5 x'Q_run x + 0.5|u|^2 running and 0.5 x'Q_term x terminal.

    Scalars are accepted for 1x1 matrices. Gaussian initial law
    N(x0_mean, x0_cov), defaulting to N(0, I). Cost matrices must be
    symmetric PSD; the returned problem probes every capability flag True
    and carries the matrices (`lq_data`) for closed-form companions.
    """
    a = np.atleast_2d(np.asarray(a_mat, dtype=np.float64))
    d = a.shape[0]
    a = _as_matrix(a_mat, (d, d), "a_mat")
    b = np.atleast_2d(np.asarray(b_mat, dtype=np.float64))
    if b.shape[0] != d:
        raise ValidationError(f"b_mat: expected {d} rows, got {b.shape[0]}")
    k = b.shape[1]
    b = _as_matrix(b_mat, (d, k), "b_mat")
    s = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    if s.shape[0] != d:
        raise ValidationError(f"sigma: expected {d} rows, got {s.shape[0]}")
    m = s.shape[1]
    s = _as_matrix(sigma, (d, m), "sigma")
    qr = _as_matrix(q_run, (d, d), "q_run")
    qt = _as_matrix(q_term, (d, d), "q_term")
    _check_sym_psd(qr, "q_run")
    _check_sym_psd(qt, "q_term")

    mean = np.zeros(d) if x0_mean is None else \
        _finite(x0_mean, "x0_mean").reshape(d)
    cov = np.eye(d) if x0_cov is None else \
        np.atleast_2d(np.asarray(x0_cov, dtype=np.float64))
    cov = _as_matrix(cov, (d, d), "x0_cov")
    _check_sym_psd(cov, "x0_cov")
    chol = _psd_factor(cov)

    def drift(x, u, t):
        return _dot(x, a.T) + _dot(u, b.T)

    def running_cost(x, u, t):
        # at d = 1 the quadratic form's one term is (x qr) x, and the u
        # term is never -0.0, so the product form gives the same bits
        state = (x * qr * x)[:, 0] if d == 1 else _quadratic(x, qr)
        return 0.5 * state + 0.5 * np.einsum("bk,bk->b", u, u)

    def terminal_cost(x):
        # nothing is added to the d = 1 form, so it keeps einsum's sum
        # 0.0 + (x qt) x, where the product alone could be -0.0
        if d == 1:
            return 0.5 * np.einsum("bi,ij,bj->b", x, qt, x)
        return 0.5 * _quadratic(x, qt)

    bundle = DerivativeBundle(
        d1_drift=_shared(a),
        d2_drift=_shared(b),
        d1_cost=lambda x, u, t: _dot(x, qr),
        d2_cost=lambda x, u, t: np.asarray(u, dtype=np.float64),
        grad_terminal=lambda x: _dot(x, qt),
        hess_terminal=_shared(qt),
        second_order=SecondOrderBundle(cost_hess_xx=_shared(qr),
                                       cost_hess_uu=_shared(np.eye(k))),
    )

    problem = ProblemSpec(
        d=d, k=k, m=m, horizon=horizon,
        drift=drift, diffusion=_shared(s),
        running_cost=running_cost, terminal_cost=terminal_cost,
        initial_sampler=_GaussianSampler(mean, chol), derivatives=bundle,
        name="lq",
        lq_data=LQData(a, b, s, qr, qt, mean.copy(), cov),
    )
    validate_derivatives(problem, n_probes=8)
    return problem


def make_ou_tilt_problem(rate, tilt, horizon):
    """Ornstein-Uhlenbeck base process with a quadratic terminal tilt.

    dX = -rate X dt + sqrt(2 rate) (u dt + dB), X_0 ~ N(0, 1), zero running
    state cost, terminal cost 0.5 * tilt * x^2. The uncontrolled process is
    stationary N(0,1); the optimally controlled terminal law is
    N(0, 1/(1+tilt)).
    """
    rate, tilt = float(_finite(rate, "rate")), float(_finite(tilt, "tilt"))
    if rate <= 0.0:
        raise ValidationError(f"rate must be positive, got {rate}")
    if tilt <= -1.0:
        raise ValidationError(f"tilt must exceed -1, got {tilt}")
    coupling = math.sqrt(2.0 * rate)
    problem = make_lq_problem(
        a_mat=-rate, b_mat=coupling, sigma=coupling,
        q_run=0.0, q_term=tilt, horizon=horizon,
        x0_mean=0.0, x0_cov=1.0,
    )
    return dataclasses.replace(
        problem, name="ou_tilt", ou_params=OUParams(float(rate), float(tilt))
    )


def make_controlled_diffusion_problem(d, k, m, horizon, drift, diffusion,
                                      running_cost, terminal_cost,
                                      initial_sampler, derivatives,
                                      name="custom"):
    """Assemble and validate a problem from user callbacks.

    The ProblemSpec checks the sizes and horizon and probes the capability
    flags at construction: diffusion is classified time-only when it never
    responds to (x, u) probes, and control_affine_quadratic additionally
    requires affine drift and an exact 0.5*|u|^2 control cost. Then runs
    the full derivative validation, raising ValidationError on the first
    failing entry.
    """
    problem = ProblemSpec(
        d=d, k=k, m=m, horizon=horizon,
        drift=drift, diffusion=diffusion,
        running_cost=running_cost, terminal_cost=terminal_cost,
        initial_sampler=initial_sampler, derivatives=derivatives,
        name=name,
    )
    validate_derivatives(problem, n_probes=32)
    return problem


def make_scalar_geometric_problem(nu=0.2, horizon=1.0, x0_mean=1.0, x0_std=0.2):
    """Scalar multiplicative-noise benchmark: dX = u X dt + nu X dB,
    running cost 0.5 u^2, terminal cost (x-1)^2, X_0 ~ N(x0_mean, x0_std^2).

    The state-dependent diffusion clears diffusion_time_only and
    control_affine_quadratic (time_homogeneous holds), which makes this the
    stock instance for exercising the full (noise-coupled) adjoint.
    """
    nu = float(_finite(nu, "nu"))
    x0_mean = float(_finite(x0_mean, "x0_mean"))
    x0_std = float(_finite(x0_std, "x0_std"))

    def drift(x, u, t):
        return u * x

    def diffusion(x, u, t):
        return nu * x[:, :, None]

    def running_cost(x, u, t):
        return 0.5 * np.einsum("bk,bk->b", u, u)

    def terminal_cost(x):
        return np.einsum("bi,bi->b", x - 1.0, x - 1.0)

    def ones3(x):
        return np.ones((x.shape[0], 1, 1))

    bundle = DerivativeBundle(
        d1_drift=lambda x, u, t: u[:, :, None],
        d2_drift=lambda x, u, t: x[:, :, None],
        d1_cost=lambda x, u, t: np.zeros_like(x),
        d2_cost=lambda x, u, t: np.asarray(u, dtype=np.float64),
        grad_terminal=lambda x: 2.0 * (x - 1.0),
        hess_terminal=lambda x: np.full((x.shape[0], 1, 1), 2.0),
        dsigma_dx=lambda x, u, t: np.full((x.shape[0], 1, 1, 1), nu),
        second_order=SecondOrderBundle(
            drift_hess_xu=lambda x, u, t: np.ones((x.shape[0], 1, 1, 1)),
            cost_hess_uu=lambda x, u, t: np.ones((x.shape[0], 1, 1)),
        ),
    )
    return make_controlled_diffusion_problem(
        d=1, k=1, m=1, horizon=horizon, drift=drift, diffusion=diffusion,
        running_cost=running_cost, terminal_cost=terminal_cost,
        initial_sampler=_GaussianSampler(np.array([x0_mean]),
                                         np.array([[x0_std]])),
        derivatives=bundle, name="scalar_geometric",
    )
