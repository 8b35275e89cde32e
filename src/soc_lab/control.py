"""Parametric feedback-control families.

A ControlModel maps (state batch, time) -> control batch through a flat
parameter vector theta, and exposes the two Jacobians everything else
needs: d u / d theta (B, k, P) and d u / d x (B, k, d). `node_chunk`
gives u and d u / d theta on a chunk of grid nodes, the latter factored:
an affine family's u_c is sum_f theta[layout(c, f)] phi_f(x, t), so
d u / d theta is one small feature matrix phi and an integer layout per
node, and the frozen-batch walks contract phi alone. Families:

  * linear_feedback  — piecewise-constant gains: u = K_j x + c_j on the
    j-th of n uniform intervals of [0, horizon].
  * feature_linear   — u = Theta phi(x, t) with hand-picked scalar/time
    features.
  * one_hidden_layer — tanh network on (x, t, horizon - t), width <= 64.

The first two are `affine`: u = K(t) x + c(t) with K and c linear in
theta, so d2u/dx2 = 0 and the MSA step has a closed form. Controls are
built by the `make_*` builders or `load_control`, with theta defaulting to
zeros (the zero control). They are immutable; `with_theta` returns an
updated copy. JSON round-trips keep theta bit-for-bit (floats via repr).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import ConfigError, ValidationError
from .simulate import _dot, _positive_count, _positive_horizon

_EXP_RE = re.compile(r"^exp\(-([0-9]+(?:\.[0-9]*)?)\*tau\)$")
_TIME_FNS = {"1": lambda t, horizon: 1.0,
             "t": lambda t, horizon: t,
             "tau": lambda t, horizon: horizon - t}


def _parse_feature(text):
    """-> (uses_x, time factor as a function of (t, horizon))."""
    if not isinstance(text, str):
        raise ValidationError(f"feature must be a string, got {text!r}")
    uses_x = text == "x" or text.startswith("x*")
    part = "1" if text == "x" else text[2:] if uses_x else text
    if part in _TIME_FNS:
        return uses_x, _TIME_FNS[part]
    match = _EXP_RE.match(part)
    if match is None:
        raise ValidationError(
            f"unknown feature {text!r}; expected 1, t, tau, exp(-<rate>*tau), "
            f"optionally prefixed by 'x*' (or plain 'x')")
    rate = float(match.group(1))
    return uses_x, lambda t, horizon: math.exp(-rate * (horizon - t))


class ControlModel:
    """Base of the control families: checks every (x, t) once.

    A family names its JSON tag (`family`) and its one structural keyword
    (`_knob`, also an attribute), and supplies `_n_params` and u, du/dtheta
    and du/dx (`_u`, `_du_dtheta`, `_du_dx`) at a checked (x, t).
    `_du_dtheta` takes a list of node times and returns (layouts, phi) as
    `node_chunk` documents. `x_hessian_is_zero` says d2u/dx2 vanishes
    identically.
    """

    affine = x_hessian_is_zero = False

    def __init__(self, d, k, horizon, theta=None):
        self.d = _positive_count(d, "d")
        self.k = _positive_count(k, "k")
        self.horizon = _positive_horizon(horizon)
        n_params = self._n_params()
        if theta is None:
            theta = np.zeros(n_params)
        try:
            theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"theta must be numbers: {exc}") from None
        if theta.size != n_params:
            raise ValidationError(
                f"theta has {theta.size} entries, family needs {n_params}")
        self.theta = theta.copy()
        self.theta.setflags(write=False)

    @property
    def n_params(self):
        return self.theta.size

    def _structure(self):
        return {"d": self.d, "k": self.k, "horizon": self.horizon,
                self._knob: getattr(self, self._knob)}

    def with_theta(self, theta):
        return type(self)(theta=theta, **self._structure())

    def _point(self, x, t):
        """(x as a float (B, d) batch, t as a float in [0, horizon])."""
        return self._states(x), self._time(t)

    def _states(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValidationError(f"state batch has shape {x.shape}, "
                                  f"control expects (B, {self.d})")
        return x

    def _time(self, t):
        t = float(t)
        slack = 1e-9 * max(1.0, self.horizon)
        if not -slack <= t <= self.horizon + slack:
            raise ValidationError(
                f"time {t} outside control horizon [0, {self.horizon}]")
        return t

    def evaluate(self, x, t):
        """u(x, t) for a state batch x (B, d) at scalar time t."""
        return self._u(*self._point(x, t))

    def node_chunk(self, x, times):
        """u and du/dtheta on a chunk of grid nodes, as (u, layouts, phi).

        x (c*B, d) holds B states at each of the c `times`, node-major:
        rows j*B to (j+1)*B - 1 are at times[j]. u is (c*B, k). du/dtheta
        comes factored: layouts is an integer (c, k, F) array, and at node
        j row b's du_c/dtheta is phi[b, f] at column layouts[j, c, f] and
        zero elsewhere. An `affine` family's phi is (c*B, F), shared by the
        components, whose layout rows name disjoint columns. one_hidden_layer
        is no Kronecker product: its phi is the dense (B, k, P) du/dtheta,
        phi[b, c, f] at layouts[0, c, f], and every layout row names all P
        columns. Only `affine` families take more than one node.
        """
        x, times = self._chunk_point(x, times)
        return (self._chunk_u(x, times),) + self._du_dtheta(x, times)

    def _chunk_point(self, x, times):
        """(x, times) checked as `node_chunk` takes them."""
        x, times = self._states(x), [self._time(t) for t in times]
        if (not times or x.shape[0] % len(times)
                or len(times) > 1 and not self.affine):
            raise ValidationError(
                f"{self.family} cannot split {x.shape[0]} state rows into "
                f"{len(times)} nodes")
        return x, times

    def _chunk_u(self, x, times):
        return self._u(x, times[0])

    def jacobians(self, x, t):
        """(du_dtheta (B,k,P), du_dx (B,k,d)) at (x, t)."""
        x, t = self._point(x, t)
        (layout,), phi = self._du_dtheta(x, [t])
        du_dtheta = np.zeros((x.shape[0], self.k, self.n_params))
        du_dtheta[:, np.arange(self.k)[:, None], layout] = (
            phi[:, None] if phi.ndim == 2 else phi)
        return du_dtheta, self._du_dx(x, t)

    def state_jacobian(self, x, t):
        """du_dx alone (B, k, d); cheaper than `jacobians` when P is large."""
        return self._du_dx(*self._point(x, t))

    def to_json_dict(self):
        return {"family": self.family, "structure": self._structure(),
                "theta": [float(v) for v in self.theta]}

    @staticmethod
    def from_json_dict(data):
        """Inverse of `to_json_dict`; ValidationError on a malformed dict."""
        try:
            family = _FAMILIES[data["family"]]
            return family(theta=data["theta"], **data["structure"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed control JSON ({type(exc).__name__}: {exc}); "
                f"families are {sorted(_FAMILIES)}") from None


class _Affine(ControlModel):
    """u = K(t) x + c(t); a family supplies `_affine(t)` -> (K, c)."""

    affine = x_hessian_is_zero = True

    def _u(self, x, t):
        gain, offset = self._affine(t)
        return _dot(x, gain.T) + offset

    def _chunk_u(self, x, times):
        """K(t_j) and c(t_j) stacked per node; one node needs no stack."""
        if len(times) == 1:
            return self._u(x, times[0])
        gains, offsets = zip(*map(self._affine, times))
        u = (_dot(x.reshape(len(times), -1, self.d),
                  np.swapaxes(np.stack(gains), 1, 2))
             + np.stack(offsets)[:, None])
        return u.reshape(-1, self.k)

    def _du_dx(self, x, t):
        return np.broadcast_to(self._affine(t)[0], (x.shape[0], self.k,
                                                    self.d))


class _LinearFeedback(_Affine):
    family = "linear_feedback"
    _knob = "n_intervals"

    def __init__(self, d, k, horizon, n_intervals, theta=None):
        self.n_intervals = _positive_count(n_intervals, "n_intervals")
        super().__init__(d, k, horizon, theta)
        # component c's gain row and offset in the first interval's block
        self._layout = np.column_stack([
            np.arange(k * d).reshape(k, d), k * d + np.arange(k)])

    def _n_params(self):
        return self.n_intervals * (self.k * self.d + self.k)

    def _base(self, t):
        """Offset of the active interval's block in theta. A time in the
        slack `_point` allows below 0 (above horizon) is in the first
        (last) interval."""
        n = self.n_intervals
        j = min(n - 1, max(0, int(math.floor(t * n / self.horizon + 1e-9))))
        return j * (self.k * self.d + self.k)

    def _affine(self, t):
        d, k = self.d, self.k
        base = self._base(t)
        return (self.theta[base:base + k * d].reshape(k, d),
                self.theta[base + k * d:base + k * d + k])

    def _du_dtheta(self, x, times):
        """phi = [x, 1] at the active interval's gain row and offset."""
        phi = np.empty((x.shape[0], self.d + 1))
        phi[:, :self.d] = x
        phi[:, self.d] = 1.0
        bases = np.array([self._base(t) for t in times])
        return self._layout + bases[:, None, None], phi


class _FeatureLinear(_Affine):
    family = "feature_linear"
    _knob = "features"

    def __init__(self, d, k, horizon, features, theta=None):
        if isinstance(features, str):  # list() would split it into letters
            raise ValidationError(f"features must be a list of strings, "
                                  f"got the string {features!r}")
        self.features = list(features)
        if not self.features:
            raise ValidationError("feature_linear needs at least one feature")
        self._parsed = [_parse_feature(text) for text in self.features]
        super().__init__(d, k, horizon, theta)

    def _n_params(self):
        return self.k * sum(self.d if uses_x else 1
                            for uses_x, _ in self._parsed)

    def _affine(self, t):
        theta = self.theta.reshape(self.k, -1)
        gain = np.zeros((self.k, self.d))
        offset = np.zeros(self.k)
        col = 0
        for uses_x, time_fn in self._parsed:
            tv = time_fn(t, self.horizon)
            if uses_x:
                gain += tv * theta[:, col:col + self.d]
                col += self.d
            else:
                offset += tv * theta[:, col]
                col += 1
        return gain, offset

    def _du_dtheta(self, x, times):
        per_node = x.shape[0] // len(times)
        blocks = []
        for uses_x, time_fn in self._parsed:
            tv = np.repeat([time_fn(t, self.horizon) for t in times],
                           per_node)[:, None]
            blocks.append(x * tv if uses_x else tv)
        phi = np.concatenate(blocks, axis=1)
        layout = np.arange(self.n_params).reshape(self.k, -1)
        return np.broadcast_to(layout, (len(times),) + layout.shape), phi


class _OneHiddenLayer(ControlModel):
    family = "one_hidden_layer"
    _knob = "width"

    def __init__(self, d, k, horizon, width, theta=None):
        self.width = _positive_count(width, "width")
        if self.width > 64:
            raise ValidationError(f"width must be in [1, 64], got {width}")
        super().__init__(d, k, horizon, theta)
        w1, self._b1, w2, self._b2 = np.split(self.theta, np.cumsum(
            [self.width * (self.d + 2), self.width, self.k * self.width]))
        self._w1 = w1.reshape(self.width, self.d + 2)
        self._w2 = w2.reshape(self.k, self.width)

    def _n_params(self):
        return self.width * (self.d + 3 + self.k) + self.k

    def _hidden(self, x, t):
        """(network input z (B, d+2), tanh layer (B, width))."""
        extra = np.empty((x.shape[0], 2))
        extra[:, 0] = t
        extra[:, 1] = self.horizon - t
        z = np.concatenate([x, extra], axis=1)
        return z, np.tanh(z @ self._w1.T + self._b1)

    def _u(self, x, t):
        return self._hidden(x, t)[1] @ self._w2.T + self._b2

    def _du_dtheta(self, x, times):
        batch, d, k, width = x.shape[0], self.d, self.k, self.width
        z, hidden = self._hidden(x, *times)  # one node
        gate = 1.0 - hidden * hidden  # (B, width)
        dw1 = np.einsum("cj,bj,bl->bcjl", self._w2, gate, z).reshape(
            batch, k, width * (d + 2))
        db1 = np.einsum("cj,bj->bcj", self._w2, gate)
        dw2 = np.zeros((batch, k, k, width))
        for c in range(k):
            dw2[:, c, c, :] = hidden
        dw2 = dw2.reshape(batch, k, k * width)
        db2 = np.broadcast_to(np.eye(k), (batch, k, k))
        n_params = self.n_params
        return (np.broadcast_to(np.arange(n_params), (1, k, n_params)),
                np.concatenate([dw1, db1, dw2, db2], axis=2))

    def _du_dx(self, x, t):
        hidden = self._hidden(x, t)[1]
        return np.einsum("cj,bj,jp->bcp", self._w2, 1.0 - hidden * hidden,
                         self._w1[:, :self.d])


_FAMILIES = {cls.family: cls
             for cls in (_LinearFeedback, _FeatureLinear, _OneHiddenLayer)}


def make_linear_feedback_control(d, k, n_intervals, horizon, theta=None):
    """Piecewise-constant affine feedback with n_intervals uniform pieces.

    Parameter layout per interval j: gain K_j row-major (k*d entries),
    then offset c_j (k entries).
    """
    return _LinearFeedback(d, k, horizon, n_intervals, theta)


def make_feature_linear_control(d, k, features, horizon, theta=None):
    """u = Theta phi(x, t) over declared features.

    Feature strings: "1", "t", "tau", "exp(-<rate>*tau)" (tau = horizon - t),
    each optionally multiplied by the state as "x" / "x*t" / "x*tau" /
    "x*exp(-<rate>*tau)". Scalar features contribute one column of phi;
    x-features contribute d columns. Theta is stored row-major (k rows).
    """
    return _FeatureLinear(d, k, horizon, features, theta)


def make_one_hidden_layer_control(d, k, width, horizon, theta=None):
    """tanh network u = W2 tanh(W1 [x, t, horizon-t] + b1) + b2.

    Parameter layout: W1 (width, d+2) row-major, b1, W2 (k, width), b2.
    """
    return _OneHiddenLayer(d, k, horizon, width, theta)


def save_control(control, path):
    """Write a control to JSON (sorted keys, full float precision)."""
    with open(path, "w", newline="\n") as fh:
        json.dump(control.to_json_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_control(path):
    """Read a control written by `save_control`; ValidationError if the
    payload does not describe one."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return ControlModel.from_json_dict(data)
