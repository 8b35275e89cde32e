"""Parametric feedback-control families.

A ControlModel maps (state batch, time) -> control batch through a flat
parameter vector theta, and exposes the two Jacobians everything else
needs: d u / d theta (B, k, P) and d u / d x (B, k, d). Families:

  * linear_feedback  — piecewise-constant gains: u = K_j x + c_j on the
    j-th of n uniform intervals of [0, horizon].
  * feature_linear   — u = Theta phi(x, t) with hand-picked scalar/time
    features; affine in x, so d2u/dx2 = 0 exactly.
  * one_hidden_layer — tanh network on (x, t, horizon - t), width <= 64.

theta defaults to zeros, which makes every family the zero control.
Models are immutable; `with_theta` returns an updated copy (the trainer's
update rule). JSON round-trips preserve parameters bit-for-bit (floats
are serialized via repr).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import ConfigError, ValidationError
from .simulate import _positive_horizon

_FAMILIES = ("linear_feedback", "feature_linear", "one_hidden_layer")

_TIME_PARTS = ("1", "t", "tau", "exp")
_EXP_RE = re.compile(r"^exp\(-([0-9]+(?:\.[0-9]*)?)\*tau\)$")


def _parse_time_part(text):
    if text == "1":
        return "1", 0.0
    if text == "t":
        return "t", 0.0
    if text == "tau":
        return "tau", 0.0
    match = _EXP_RE.match(text)
    if match:
        return "exp", float(match.group(1))
    raise ValidationError(
        f"unknown feature {text!r}; expected 1, t, tau, exp(-<rate>*tau), "
        f"optionally prefixed by 'x*' (or plain 'x')")


def _parse_feature(text):
    """-> (uses_x, time_kind, rate)."""
    if text == "x":
        return True, "1", 0.0
    if text.startswith("x*"):
        kind, rate = _parse_time_part(text[2:])
        return True, kind, rate
    kind, rate = _parse_time_part(text)
    return False, kind, rate


def _time_value(kind, rate, t, horizon):
    if kind == "1":
        return 1.0
    if kind == "t":
        return t
    if kind == "tau":
        return horizon - t
    return math.exp(-rate * (horizon - t))


class ControlModel:
    """One member of a control family; see the module docstring."""

    def __init__(self, family, d, k, horizon, meta, theta=None):
        if family not in _FAMILIES:
            raise ValidationError(f"unknown control family {family!r}")
        if d < 1 or k < 1:
            raise ValidationError(f"dimensions must be positive: d={d}, k={k}")
        self.family = family
        self.d = int(d)
        self.k = int(k)
        self.horizon = _positive_horizon(horizon)
        self.meta = dict(meta)
        n_params = self._n_params()
        if theta is None:
            theta = np.zeros(n_params)
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if theta.size != n_params:
            raise ValidationError(
                f"theta has {theta.size} entries, family needs {n_params}")
        self.theta = theta.copy()
        self.theta.setflags(write=False)

    # -- structure ---------------------------------------------------------

    def _n_params(self):
        d, k = self.d, self.k
        if self.family == "linear_feedback":
            return self.meta["n_intervals"] * (k * d + k)
        if self.family == "feature_linear":
            return k * self._n_features()
        width = self.meta["width"]
        return width * (d + 2) + width + k * width + k

    def _n_features(self):
        return sum(self.d if uses_x else 1 for uses_x, _, _ in self.meta["parsed"])

    @property
    def n_params(self):
        return self.theta.size

    @property
    def x_hessian_is_zero(self):
        """True when d2u/dx2 vanishes identically (affine-in-x families)."""
        return self.family in ("linear_feedback", "feature_linear")

    def with_theta(self, theta):
        return ControlModel(self.family, self.d, self.k, self.horizon,
                            self.meta, theta=theta)

    # -- evaluation --------------------------------------------------------

    def _check_time(self, t):
        slack = 1e-9 * max(1.0, self.horizon)
        if t < -slack or t > self.horizon + slack:
            raise ValidationError(
                f"time {t} outside control horizon [0, {self.horizon}]")

    def _interval(self, t):
        n = self.meta["n_intervals"]
        return min(n - 1, int(math.floor(t * n / self.horizon + 1e-9)))

    def _gains(self, t):
        d, k = self.d, self.k
        base = self._interval(t) * (k * d + k)
        gain = self.theta[base:base + k * d].reshape(k, d)
        offset = self.theta[base + k * d:base + k * d + k]
        return base, gain, offset

    def _phi(self, x, t):
        """Feature matrix (B, F) and the per-feature time values."""
        horizon = self.horizon
        blocks = []
        tvals = []
        for uses_x, kind, rate in self.meta["parsed"]:
            tv = _time_value(kind, rate, t, horizon)
            tvals.append(tv)
            if uses_x:
                blocks.append(x * tv)
            else:
                blocks.append(np.full((x.shape[0], 1), tv))
        return np.concatenate(blocks, axis=1), tvals

    def _layers(self):
        d, k = self.d, self.k
        width = self.meta["width"]
        n1 = width * (d + 2)
        w1 = self.theta[:n1].reshape(width, d + 2)
        b1 = self.theta[n1:n1 + width]
        w2 = self.theta[n1 + width:n1 + width + k * width].reshape(k, width)
        b2 = self.theta[n1 + width + k * width:]
        return w1, b1, w2, b2

    def evaluate(self, x, t):
        """u(x, t) for a state batch x (B, d) at scalar time t."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.d:
            raise ValidationError(f"state batch has {x.shape[1]} columns, "
                                  f"control expects {self.d}")
        t = float(t)
        self._check_time(t)
        if self.family == "linear_feedback":
            _, gain, offset = self._gains(t)
            return x @ gain.T + offset
        if self.family == "feature_linear":
            phi, _ = self._phi(x, t)
            theta = self.theta.reshape(self.k, self._n_features())
            return phi @ theta.T
        w1, b1, w2, b2 = self._layers()
        z = self._net_input(x, t)
        hidden = np.tanh(z @ w1.T + b1)
        return hidden @ w2.T + b2

    def _net_input(self, x, t):
        batch = x.shape[0]
        extra = np.empty((batch, 2))
        extra[:, 0] = t
        extra[:, 1] = self.horizon - t
        return np.concatenate([x, extra], axis=1)

    def jacobians(self, x, t):
        """(du_dtheta (B,k,P), du_dx (B,k,d)) at (x, t)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        t = float(t)
        self._check_time(t)
        batch, d, k = x.shape[0], self.d, self.k
        if self.family == "linear_feedback":
            base, gain, _ = self._gains(t)
            du_dtheta = np.zeros((batch, k, self.n_params))
            for c in range(k):
                du_dtheta[:, c, base + c * d:base + (c + 1) * d] = x
                du_dtheta[:, c, base + k * d + c] = 1.0
            du_dx = np.broadcast_to(gain, (batch, k, d))
            return du_dtheta, du_dx
        if self.family == "feature_linear":
            n_feat = self._n_features()
            phi, _ = self._phi(x, t)
            theta = self.theta.reshape(k, n_feat)
            du_dtheta = np.zeros((batch, k, k * n_feat))
            for c in range(k):
                du_dtheta[:, c, c * n_feat:(c + 1) * n_feat] = phi
            return du_dtheta, self.state_jacobian(x, t)
        du_dtheta, du_dx = self._net_jacobians(x, t)
        return du_dtheta, du_dx

    def state_jacobian(self, x, t):
        """du_dx alone (B, k, d); cheaper than `jacobians` when P is large."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        t = float(t)
        self._check_time(t)
        batch, d, k = x.shape[0], self.d, self.k
        if self.family == "linear_feedback":
            _, gain, _ = self._gains(t)
            return np.broadcast_to(gain, (batch, k, d))
        if self.family == "feature_linear":
            theta = self.theta.reshape(k, self._n_features())
            du_dx = np.zeros((k, d))
            col = 0
            for uses_x, kind, rate in self.meta["parsed"]:
                if uses_x:
                    tv = _time_value(kind, rate, t, self.horizon)
                    du_dx += tv * theta[:, col:col + d]
                    col += d
                else:
                    col += 1
            return np.broadcast_to(du_dx, (batch, k, d))
        return self._net_jacobians(x, t)[1]

    def _net_jacobians(self, x, t):
        batch, d, k = x.shape[0], self.d, self.k
        width = self.meta["width"]
        w1, b1, w2, b2 = self._layers()
        z = self._net_input(x, t)
        hidden = np.tanh(z @ w1.T + b1)
        gate = 1.0 - hidden * hidden  # (B, width)
        dw1 = np.einsum("cj,bj,bl->bcjl", w2, gate, z).reshape(
            batch, k, width * (d + 2))
        db1 = np.einsum("cj,bj->bcj", w2, gate)
        dw2 = np.zeros((batch, k, k, width))
        for c in range(k):
            dw2[:, c, c, :] = hidden
        dw2 = dw2.reshape(batch, k, k * width)
        db2 = np.broadcast_to(np.eye(k), (batch, k, k))
        du_dtheta = np.concatenate([dw1, db1, dw2, db2], axis=2)
        du_dx = np.einsum("cj,bj,jp->bcp", w2, gate, w1[:, :d])
        return du_dtheta, du_dx

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        structure = {"d": self.d, "k": self.k, "horizon": self.horizon}
        if self.family == "linear_feedback":
            structure["n_intervals"] = self.meta["n_intervals"]
        elif self.family == "feature_linear":
            structure["features"] = list(self.meta["features"])
        else:
            structure["width"] = self.meta["width"]
        return {"family": self.family, "structure": structure,
                "theta": [float(v) for v in self.theta]}

    @classmethod
    def from_json_dict(cls, data):
        try:
            family = data["family"]
            structure = data["structure"]
            theta = data["theta"]
            d = structure["d"]
            k = structure["k"]
            horizon = structure["horizon"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed control JSON: missing {exc}")
        if family == "linear_feedback":
            return make_linear_feedback_control(
                d, k, structure["n_intervals"], horizon, theta=theta)
        if family == "feature_linear":
            return make_feature_linear_control(
                d, k, structure["features"], horizon, theta=theta)
        if family == "one_hidden_layer":
            return make_one_hidden_layer_control(
                d, k, structure["width"], horizon, theta=theta)
        raise ValidationError(f"unknown control family {family!r}")


def make_linear_feedback_control(d, k, n_intervals, horizon, theta=None):
    """Piecewise-constant affine feedback with n_intervals uniform pieces.

    Parameter layout per interval j: gain K_j row-major (k*d entries),
    then offset c_j (k entries).
    """
    if n_intervals < 1:
        raise ValidationError(f"n_intervals must be >= 1, got {n_intervals}")
    return ControlModel("linear_feedback", d, k, horizon,
                        {"n_intervals": int(n_intervals)}, theta=theta)


def make_feature_linear_control(d, k, features, horizon, theta=None):
    """u = Theta phi(x, t) over declared features.

    Feature strings: "1", "t", "tau", "exp(-<rate>*tau)" (tau = horizon - t),
    each optionally multiplied by the state as "x" / "x*t" / "x*tau" /
    "x*exp(-<rate>*tau)". Scalar features contribute one column of phi;
    x-features contribute d columns. Theta is stored row-major (k rows).
    """
    features = list(features)
    if not features:
        raise ValidationError("feature_linear needs at least one feature")
    parsed = [_parse_feature(text) for text in features]
    return ControlModel("feature_linear", d, k, horizon,
                        {"features": features, "parsed": parsed}, theta=theta)


def make_one_hidden_layer_control(d, k, width, horizon, theta=None):
    """tanh network u = W2 tanh(W1 [x, t, horizon-t] + b1) + b2."""
    if not 1 <= width <= 64:
        raise ValidationError(f"width must be in [1, 64], got {width}")
    return ControlModel("one_hidden_layer", d, k, horizon,
                        {"width": int(width)}, theta=theta)


def save_control(control, path):
    """Write a control to JSON (sorted keys, full float precision)."""
    with open(path, "w", newline="\n") as fh:
        json.dump(control.to_json_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_control(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return ControlModel.from_json_dict(data)
