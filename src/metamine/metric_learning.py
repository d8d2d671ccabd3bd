"""The four bilinear metric-learning objectives, their analytic gradients,
and a deterministic backtracking gradient-descent trainer.

All objectives are parametrized by two projections U (d x t) and V (l x t):

  f1: || S_X - X U U' X' ||_F^2 + mu1 ||U||_F^2          (dataset metric)
  f2: || S_A - A V V' A' ||_F^2 + mu2 ||V||_F^2          (workflow metric)
  f3: || R - X U V' A' ||_F^2 + mu1 ||U||^2 + mu2 ||V||^2
  f4: alpha*fit(f1) + beta*fit(f2) + gamma*fit(f3) + mu1 ||U||^2 + mu2 ||V||^2

where S_X / S_A are rank-correlation similarity targets over the rows /
columns of the preference matrix R, and X, A are the standardized
descriptor tables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .data_model import (DescriptorTable, HyperParams, InitScheme,
                         ModelParams, PreferenceMatrix, numeric_rank,
                         standardize)
from .preference import SimilarityAxis, similarity_target

ARMIJO_ACCEPT = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
_TINY = np.finfo(float).tiny


class ObjectiveKind(str, Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"


class StopReason(str, Enum):
    REL_TOL = "rel_tol"
    MAX_ITERS = "max_iters"
    LINE_SEARCH_FAILURE = "line_search_failure"


# the fit terms each kind weighs, S_X's, S_A's and R's: also the targets
# (s_x, s_a, r) an Objective of the kind requires and build_objective sets
_TERMS = {ObjectiveKind.F1: (True, False, False),
          ObjectiveKind.F2: (False, True, False),
          ObjectiveKind.F3: (False, False, True),
          ObjectiveKind.F4: (True, True, True)}


@dataclass(frozen=True)
class Objective:
    """Precomputed inputs of one training problem: standardized feature
    matrices plus whichever targets the objective kind needs."""

    kind: ObjectiveKind
    x: np.ndarray                       # n x d, standardized
    a: np.ndarray                       # m x l, standardized
    s_x: Optional[np.ndarray] = None    # n x n dataset similarity target
    s_a: Optional[np.ndarray] = None    # m x m workflow similarity target
    r: Optional[np.ndarray] = None      # n x m preference / score target

    def __post_init__(self):
        for name, fits in zip(("s_x", "s_a", "r"), _TERMS[self.kind]):
            if fits and getattr(self, name) is None:
                raise ValueError(f"objective {self.kind.value} requires {name}")

    @cached_property
    def reduced(self) -> ReducedObjective:
        """The QR-reduced form, computed on first use."""
        return _reduce(self)


@dataclass
class TrainTrace:
    objective_values: list
    step_sizes: list
    gradient_norms: list
    reason: StopReason

    @property
    def iterations(self):
        return len(self.step_sizes)


def _sq(m):
    """The squared Frobenius norm of m (r x c), or of each matrix in a
    stack of them (k x r x c): one vecdot per flattened matrix, the dot
    that np.vdot takes."""
    flat = m.reshape(len(m), -1) if m.ndim == 3 else m.reshape(-1)
    return np.vecdot(flat, flat)


def _project(q_left, target, q_right):
    """The small target Q_l' T Q_r and the squared norm of what the
    projection drops, ||T - Q_l (Q_l' T Q_r) Q_r'||^2. The norm is taken
    of the direct residual, not as ||T||^2 - ||Q_l' T Q_r||^2, so it stays
    >= 0 and keeps its precision near 0. (None, 0.0) for no target."""
    if target is None:
        return None, 0.0
    small = q_left.T @ target @ q_right
    return small, float(_sq(target - q_left @ small @ q_right.T))


@dataclass(frozen=True)
class ReducedObjective:
    """An Objective in the space of the thin QRs X = Q_x R_x, A = Q_a R_a.

    Each fit term splits into a constant plus a small residual, e.g.
    ||R - X U V' A'||^2 = c_r + ||Q_x' R Q_a - R_x U V' R_a'||^2, so one
    evaluation costs O((d + l)^2 t) whatever n and m are. Targets the
    objective kind lacks stay None. A stack of k problems of the same
    shapes holds each field with a leading axis of length k (the
    constants as k-vectors); the same products then evaluate all k."""

    rx: np.ndarray                      # min(n, d) x d
    ra: np.ndarray                      # min(m, l) x l
    s_x: Optional[np.ndarray]           # Q_x' S_X Q_x
    s_a: Optional[np.ndarray]           # Q_a' S_A Q_a
    r: Optional[np.ndarray]             # Q_x' R Q_a
    c_x: float                          # the constants dropped by each
    c_a: float                          # projection, all >= 0
    c_r: float

    @staticmethod
    def stack(reduced) -> ReducedObjective:
        """The problems of `reduced` stacked on a leading axis; a target
        some problem lacks is left out."""
        columns = {f.name: [getattr(red, f.name) for red in reduced]
                   for f in fields(ReducedObjective)}
        return ReducedObjective(**{
            name: None if any(c is None for c in column) else np.stack(column)
            for name, column in columns.items()})


def _reduce(obj: Objective) -> ReducedObjective:
    # numpy's reduced QR gives Q n x min(n, d), also when n < d
    qx, rx = np.linalg.qr(obj.x)
    qa, ra = np.linalg.qr(obj.a)
    s_x, c_x = _project(qx, obj.s_x, qx)
    s_a, c_a = _project(qa, obj.s_a, qa)
    r, c_r = _project(qx, obj.r, qa)
    return ReducedObjective(rx=rx, ra=ra, s_x=s_x, s_a=s_a, r=r,
                            c_x=c_x, c_a=c_a, c_r=c_r)


def _residuals(kind, red: ReducedObjective, u: np.ndarray, v: np.ndarray):
    """P = R_x U, W = R_a V and the small residuals E1 = S~_X - P P',
    E2 = S~_A - W W', E3 = R~ - P W' (None where the kind does not use
    them). Works alike on one problem and on a stack."""
    fx, fa, fr = _TERMS[kind]
    p = red.rx @ u if fx or fr else None
    w = red.ra @ v if fa or fr else None
    e1 = red.s_x - p @ p.mT if fx else None
    e2 = red.s_a - w @ w.mT if fa else None
    e3 = red.r - p @ w.mT if fr else None
    return p, w, e1, e2, e3


def _value(kind, red, u, v, res, hyper):
    """The objective at (u, v), whose residuals are res: a 0-d value for
    one problem, a k-vector for a stack."""
    _, _, e1, e2, e3 = res
    if kind is ObjectiveKind.F1:
        return red.c_x + _sq(e1) + hyper.mu1 * _sq(u)
    if kind is ObjectiveKind.F2:
        return red.c_a + _sq(e2) + hyper.mu2 * _sq(v)
    if kind is ObjectiveKind.F3:
        return red.c_r + _sq(e3) + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v)
    # f4: the three data-fit terms weighted, regularizers applied once
    return (hyper.alpha * (red.c_x + _sq(e1))
            + hyper.beta * (red.c_a + _sq(e2))
            + hyper.gamma * (red.c_r + _sq(e3))
            + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v))


def _gradient(kind, red, u, v, res, hyper):
    """(gU, gV) of _value at (u, v), whose residuals are res: the
    gradients in P and W mapped back through R_x' and R_a'."""
    p, w, e1, e2, e3 = res
    if kind is ObjectiveKind.F1:
        return red.rx.mT @ (-4.0 * (e1 @ p)) + 2.0 * hyper.mu1 * u, np.zeros_like(v)
    if kind is ObjectiveKind.F2:
        return np.zeros_like(u), red.ra.mT @ (-4.0 * (e2 @ w)) + 2.0 * hyper.mu2 * v
    if kind is ObjectiveKind.F3:
        return (red.rx.mT @ (-2.0 * (e3 @ w)) + 2.0 * hyper.mu1 * u,
                red.ra.mT @ (-2.0 * (e3.mT @ p)) + 2.0 * hyper.mu2 * v)
    gp = -4.0 * hyper.alpha * (e1 @ p) - 2.0 * hyper.gamma * (e3 @ w)
    gw = -4.0 * hyper.beta * (e2 @ w) - 2.0 * hyper.gamma * (e3.mT @ p)
    return (red.rx.mT @ gp + 2.0 * hyper.mu1 * u,
            red.ra.mT @ gw + 2.0 * hyper.mu2 * v)


def objective_value(obj: Objective, u: np.ndarray, v: np.ndarray,
                    hyper: HyperParams) -> float:
    red = obj.reduced
    return float(_value(obj.kind, red, u, v,
                        _residuals(obj.kind, red, u, v), hyper))


def gradient(obj: Objective, u: np.ndarray, v: np.ndarray,
             hyper: HyperParams):
    """Analytic gradients (gU, gV) of objective_value."""
    red = obj.reduced
    return _gradient(obj.kind, red, u, v, _residuals(obj.kind, red, u, v),
                     hyper)


def _svd_warm_start(obj: Objective, t: int):
    """Closed-form starting point from a truncated factorization of the
    objective's main target, mapped back through pseudo-inverses."""
    x_pinv = np.linalg.pinv(obj.x)
    a_pinv = np.linalg.pinv(obj.a)
    d, l = obj.x.shape[1], obj.a.shape[1]
    u = np.zeros((d, t))
    v = np.zeros((l, t))
    if _TERMS[obj.kind][2]:                    # f3 / f4: the fit of R
        m = x_pinv @ obj.r @ a_pinv.T          # d x l
        p, s, qt = np.linalg.svd(m, full_matrices=False)
        k = min(t, s.size)
        root = np.sqrt(s[:k])
        u[:, :k] = p[:, :k] * root
        v[:, :k] = qt[:k].T * root
        return u, v
    # f1 / f2: the top eigenpairs of the dataset / workflow metric target
    if obj.kind is ObjectiveKind.F1:
        pinv, target, out = x_pinv, obj.s_x, u
    else:
        pinv, target, out = a_pinv, obj.s_a, v
    w = pinv @ target @ pinv.T                 # d x d or l x l, symmetric
    w = 0.5 * (w + w.T)
    vals, vecs = np.linalg.eigh(w)
    order = np.argsort(vals)[::-1]
    k = min(t, out.shape[0])
    top = np.clip(vals[order[:k]], 0.0, None)
    out[:, :k] = vecs[:, order[:k]] * np.sqrt(top)
    return u, v


def initialize(obj: Objective, t: int, hyper: HyperParams):
    if hyper.init is InitScheme.SVD_WARM_START:
        return _svd_warm_start(obj, t)
    rng = np.random.default_rng(hyper.seed)
    d, l = obj.x.shape[1], obj.a.shape[1]
    u = rng.standard_normal((d, t)) / np.sqrt(t)
    v = rng.standard_normal((l, t)) / np.sqrt(t)
    return u, v


def _descend(kind, red: ReducedObjective, u, v, hyper):
    """Gradient descent with Armijo backtracking on the stacked (U, V) of
    each problem of a stack (red, u and v carry a leading problem axis),
    all in lock-step: one loop, each product taken once for the stack.

    Every problem keeps its own step size, backtracking and stop reason,
    and takes exactly the steps it would take alone. A problem that stops
    stays in the stack with step 0, its trials accepted, so the loop does
    no per-problem work until a problem stops. Each gradient reuses the
    residuals of the accepted trial. Returns the (U, V, TrainTrace) of
    each problem, in stack order."""
    k = len(u)
    res = _residuals(kind, red, u, v)
    f = _value(kind, red, u, v, res, hyper)
    step = np.ones(k)
    live = np.ones(k, dtype=bool)
    stops = [None] * k                      # what stop records, per problem
    values, steps, norms = [f], [], []      # per iteration, all problems

    def trial(s):
        """(u, v) - s (gU, gV), each problem moved by its own step, with
        its residuals and objective value."""
        s_col = s[:, None, None]
        u_new, v_new = u - s_col * gu, v - s_col * gv
        res_new = _residuals(kind, red, u_new, v_new)
        return u_new, v_new, res_new, _value(kind, red, u_new, v_new,
                                             res_new, hyper)

    def stop(mask, reason, n, flat=False):
        """Stop the problems of `mask` after n accepted steps, flat if at a
        zero gradient, keeping their current U and V (a later step-0 trial
        may turn a -0.0 of them into 0.0); returns how many are still live."""
        for j in np.flatnonzero(mask).tolist():
            stops[j] = (u[j], v[j], reason, n, flat)
        live[mask] = False
        return np.count_nonzero(live)

    for it in range(hyper.max_iters):
        gu, gv = _gradient(kind, red, u, v, res, hyper)
        g_sq = _sq(gu) + _sq(gv)
        norms.append(np.sqrt(g_sq))
        if np.count_nonzero(g_sq) < k:          # a stationary point
            if not stop((g_sq == 0.0) & live, StopReason.REL_TOL, it, flat=True):
                break
        s = 2.0 * step * live       # try growing the last accepted step
        stopped = ~live
        for _bt in range(MAX_BACKTRACKS):
            u_new, v_new, res_new, f_new = trial(s)
            accepted = (f_new <= f - ARMIJO_ACCEPT * s * g_sq) | stopped
            if np.count_nonzero(accepted) == k:
                break
            # shrink only the steps not accepted: an accepted problem
            # repeats its trial and gets the same value back
            s = np.where(accepted, s, s * ARMIJO_SHRINK)
        else:
            if not stop(~accepted, StopReason.LINE_SEARCH_FAILURE, it):
                break
            s = s * live                # the failed problems stay put
            u_new, v_new, res_new, f_new = trial(s)
        u, v, res, step = u_new, v_new, res_new, s
        values.append(f_new)
        steps.append(s)
        decrease = (f - f_new) / np.maximum(np.abs(f), _TINY)
        f = f_new
        converged = (decrease < hyper.rel_tol) & live
        if (np.count_nonzero(converged)
                and not stop(converged, StopReason.REL_TOL, it + 1)):
            break
    stop(live.copy(), StopReason.MAX_ITERS, len(steps))
    columns = [np.reshape(table, (len(table), k)).T.tolist()
               for table in (values, steps, norms)]
    return [(uj, vj, TrainTrace(vals[:n + 1], sts[:n], nrm[:n + flat], reason))
            for (uj, vj, reason, n, flat), vals, sts, nrm in zip(stops, *columns)]


def _descend_all(problems, hyper: HyperParams):
    """The descents of (kind, ReducedObjective, u0, v0) problems, those of
    the same kind and shapes as one stack. Returns the (u, v, TrainTrace)
    of each problem, in order."""
    groups = {}
    for index, (kind, red, u0, v0) in enumerate(problems):
        key = (kind, red.rx.shape, red.ra.shape, u0.shape, v0.shape)
        groups.setdefault(key, []).append(index)
    out = [None] * len(problems)
    for (kind, *_), members in groups.items():
        stacked = _descend(
            kind, ReducedObjective.stack([problems[i][1] for i in members]),
            np.stack([problems[i][2] for i in members]),
            np.stack([problems[i][3] for i in members]), hyper)
        for i, result in zip(members, stacked):
            out[i] = result
    return out


def minimize_many(problems, hyper: HyperParams):
    """minimize for each (Objective, u0, v0) of `problems`, with the
    problems of the same kind and shapes descending as one stack. Returns
    the (u, v, TrainTrace) of each problem, in order; each equals what
    minimize gives for that problem alone."""
    return _descend_all([(obj.kind, obj.reduced, u0, v0)
                         for obj, u0, v0 in problems], hyper)


def minimize(obj: Objective, u0: np.ndarray, v0: np.ndarray,
             hyper: HyperParams):
    """Gradient descent with Armijo backtracking on the stacked (U, V): a
    stack of one problem. The accepted objective sequence is
    non-increasing by construction. Returns (u, v, TrainTrace)."""
    return minimize_many([(obj, u0, v0)], hyper)[0]


def build_objective(kind: ObjectiveKind, x_std: np.ndarray, a_std: np.ndarray,
                    r: PreferenceMatrix, fit_matrix=None) -> Objective:
    """Assemble an Objective from standardized features and the preference
    matrix, computing the rank-correlation targets the kind requires.

    fit_matrix optionally replaces R's scores as the heterogeneous target
    (e.g. a latent score matrix from the synthetic generator).
    """
    fx, fa, fr = _TERMS[kind]
    s_x = similarity_target(r, SimilarityAxis.DATASETS).matrix if fx else None
    s_a = similarity_target(r, SimilarityAxis.WORKFLOWS).matrix if fa else None
    r_mat = None
    if fr:
        r_mat = r.scores if fit_matrix is None else np.asarray(fit_matrix, dtype=float)
    return Objective(kind=kind, x=x_std, a=a_std, s_x=s_x, s_a=s_a, r=r_mat)


def _setup(kind, x, a, r, hyper, fit_matrix=None):
    """One training problem: standardize, pick t, build the objective and
    initialize. Returns the descent's (Objective, u0, v0) and a partial
    ModelParams that takes the descent's u and v."""
    x_std_table, x_record = standardize(x)
    a_std_table, a_record = standardize(a)
    x_std = x_std_table.features
    a_std = a_std_table.features
    t = hyper.t
    if t is None:
        t = max(1, min(numeric_rank(x_std), numeric_rank(a_std)))
    obj = build_objective(kind, x_std, a_std, r, fit_matrix=fit_matrix)
    u0, v0 = initialize(obj, t, hyper)
    model = partial(ModelParams, t=t, hyper=hyper,
                    x_standardization=x_record, a_standardization=a_record,
                    objective=kind.value, x_feature_names=x.feature_names,
                    a_feature_names=a.feature_names)
    return (obj, u0, v0), model


def train(kind: ObjectiveKind, x: DescriptorTable, a: DescriptorTable,
          r: PreferenceMatrix, hyper: HyperParams, fit_matrix=None):
    """Full training pipeline: standardize, pick t, initialize, descend.

    Returns (ModelParams, TrainTrace). Deterministic for a fixed hyper
    (including seed). max_iters=0 returns the initialization unchanged.
    """
    problem, model = _setup(kind, x, a, r, hyper, fit_matrix)
    u, v, trace = minimize(*problem, hyper)
    return model(u=u, v=v), trace


def train_many(problems, hyper: HyperParams):
    """train for each (kind, x, a, r) of `problems`, the descents of the
    same kind and shapes as one stack. Returns the (ModelParams,
    TrainTrace) of each, in order, each equal to what train gives for it
    alone."""
    reduced, models = [], []
    for kind, x, a, r in problems:
        # keep only the QR-reduced problem, not the n x m targets
        (obj, u0, v0), model = _setup(kind, x, a, r, hyper)
        reduced.append((kind, obj.reduced, u0, v0))
        models.append(model)
    return [(model(u=u, v=v), trace) for model, (u, v, trace)
            in zip(models, _descend_all(reduced, hyper))]
