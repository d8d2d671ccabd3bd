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

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import chain
from typing import Optional

import numpy as np

from .data_model import (DescriptorTable, HyperParams, IngestError,
                         InitScheme, ModelParams, PreferenceMatrix, _each, _store,
                         kept, standardize_stack)
from .preference import similarity_stack

ARMIJO_ACCEPT = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
_TINY = np.finfo(float).tiny
# the most similarity-target cells one set-up stack holds: unbounded, LODO
# 160 x 10 took peak RSS from 112 to 209 MB and ran slower; bounded, 118 MB
_TARGET_CELLS = 2 ** 18


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
    matrices plus whichever targets the objective kind needs; a stack of
    k problems of one shape when every array has a leading axis k."""

    kind: ObjectiveKind
    x: np.ndarray                       # n x d, standardized
    a: np.ndarray                       # m x l, standardized
    s_x: Optional[np.ndarray] = None    # n x n dataset similarity target
    s_a: Optional[np.ndarray] = None    # m x m workflow similarity target
    r: Optional[np.ndarray] = None      # n x m preference / score target

    def __post_init__(self):
        _store(self, kind=ObjectiveKind)
        for name, fits in zip(("s_x", "s_a", "r"), _TERMS[self.kind]):
            if fits and getattr(self, name) is None:
                raise ValueError(f"objective {self.kind.value} requires {name}")

    @cached_property
    def reduced(self) -> ReducedObjective:
        """The QR-reduced form, a stack of one, computed on first use."""
        return _reduce(_each(lambda field: field[None], self))


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
    """The squared Frobenius norm of each matrix of a stack (k x r x c):
    one vecdot per flattened matrix, the dot that np.vdot takes."""
    flat = m.reshape(len(m), -1)
    return np.vecdot(flat, flat)


def _project(q_left, target, q_right):
    """Per problem of a stack, the small target Q_l' T Q_r and the squared
    norm of what the projection drops, ||T - Q_l (Q_l' T Q_r) Q_r'||^2,
    taken of the direct residual, not as ||T||^2 - ||Q_l' T Q_r||^2, so it
    stays >= 0 and precise near 0. (None, None) for no target."""
    if target is None:
        return None, None
    small = q_left.mT @ target @ q_right
    return small, _sq(target - q_left @ small @ q_right.mT)


@dataclass(frozen=True)
class ReducedObjective:
    """An Objective in the space of the thin QRs X = Q_x R_x, A = Q_a R_a.

    Each fit term splits into a constant plus a small residual, e.g.
    ||R - X U V' A'||^2 = c_r + ||Q_x' R Q_a - R_x U V' R_a'||^2, so one
    evaluation costs O((d + l)^2 t) whatever n and m are. It is a stack
    of k problems of one kind and shape, each field with a leading axis k
    (the constants k-vectors), None for a target the kind lacks."""

    rx: np.ndarray                      # k x min(n, d) x d
    ra: np.ndarray                      # k x min(m, l) x l
    s_x: Optional[np.ndarray]           # Q_x' S_X Q_x
    s_a: Optional[np.ndarray]           # Q_a' S_A Q_a
    r: Optional[np.ndarray]             # Q_x' R Q_a
    c_x: Optional[np.ndarray]           # the constants dropped by each
    c_a: Optional[np.ndarray]           # projection, all >= 0
    c_r: Optional[np.ndarray]


def _reduce(obj: Objective, qr_x=None, qr_a=None) -> ReducedObjective:
    """The ReducedObjective stack of an Objective stack, of its kind's
    targets, from the thin QRs (Q, R) of its X and A stacks where given."""
    fx, fa, fr = _TERMS[obj.kind]
    # numpy's reduced QR gives Q n x min(n, d), also when n < d
    qx, rx = qr_x or np.linalg.qr(obj.x)
    qa, ra = qr_a or np.linalg.qr(obj.a)
    s_x, c_x = _project(qx, obj.s_x if fx else None, qx)
    s_a, c_a = _project(qa, obj.s_a if fa else None, qa)
    r, c_r = _project(qx, obj.r if fr else None, qa)
    return ReducedObjective(rx=rx, ra=ra, s_x=s_x, s_a=s_a, r=r,
                            c_x=c_x, c_a=c_a, c_r=c_r)


def _residuals(kind, red: ReducedObjective, u: np.ndarray, v: np.ndarray):
    """P = R_x U, W = R_a V and the small residuals E1 = S~_X - P P',
    E2 = S~_A - W W', E3 = R~ - P W' of each problem of a stack (None
    where the kind does not use them)."""
    fx, fa, fr = _TERMS[kind]
    p = red.rx @ u if fx or fr else None
    w = red.ra @ v if fa or fr else None
    # .copy(): each slice is one dgemm, not numpy's slower dsyrk for x @ x.mT
    e1 = red.s_x - p @ p.mT.copy() if fx else None
    e2 = red.s_a - w @ w.mT.copy() if fa else None
    e3 = red.r - p @ w.mT if fr else None
    return p, w, e1, e2, e3


def _value(kind, red, u, v, res, hyper):
    """The objective at (u, v), whose residuals are res: a k-vector, one
    value per problem of the stack."""
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
    red, u, v = obj.reduced, u[None], v[None]
    return float(_value(obj.kind, red, u, v,
                        _residuals(obj.kind, red, u, v), hyper)[0])


def gradient(obj: Objective, u: np.ndarray, v: np.ndarray,
             hyper: HyperParams):
    """Analytic gradients (gU, gV) of objective_value."""
    red, u, v = obj.reduced, u[None], v[None]
    gu, gv = _gradient(obj.kind, red, u, v, _residuals(obj.kind, red, u, v), hyper)
    return gu[0], gv[0]


def initialize(obj: Objective, t: int, hyper: HyperParams):
    """The starting (U, V) of a problem, or the (U, V) stacks of an
    Objective stack: one seeded draw for all its problems, or each
    problem's closed form from a truncated factorization of its main
    target, mapped back through pseudo-inverses."""
    u = np.zeros((*obj.x.shape[:-2], obj.x.shape[-1], t))
    v = np.zeros((*obj.a.shape[:-2], obj.a.shape[-1], t))
    if hyper.init is InitScheme.SEEDED_GAUSSIAN:
        rng = np.random.default_rng(hyper.seed)
        u[...] = rng.standard_normal(u.shape[-2:]) / np.sqrt(t)
        v[...] = rng.standard_normal(v.shape[-2:]) / np.sqrt(t)
        return u, v
    fx, _, fr = _TERMS[obj.kind]
    if fr:                                     # f3 / f4: the fit of R
        m = np.linalg.pinv(obj.x) @ obj.r @ np.linalg.pinv(obj.a).mT  # d x l
        p, s, qt = np.linalg.svd(m, full_matrices=False)
        k = min(t, s.shape[-1])
        root = np.sqrt(s[..., None, :k])
        u[..., :k] = p[..., :k] * root
        v[..., :k] = qt[..., :k, :].mT * root
        return u, v
    # f1 / f2: the top eigenpairs of the dataset / workflow metric target
    features, target, out = (obj.x, obj.s_x, u) if fx else (obj.a, obj.s_a, v)
    pinv = np.linalg.pinv(features)
    w = pinv @ target @ pinv.mT                # d x d or l x l, symmetric
    w = 0.5 * (w + w.mT)
    vals, vecs = np.linalg.eigh(w)
    top_first = np.argsort(vals)[..., ::-1][..., :min(t, out.shape[-2])]
    top = np.clip(np.take_along_axis(vals, top_first, -1), 0.0, None)
    out[..., :top.shape[-1]] = (np.take_along_axis(vecs, top_first[..., None, :], -1)
                                * np.sqrt(top)[..., None, :])
    return u, v


@np.errstate(over="ignore", invalid="ignore")   # a trial that overflows is rejected
def _descend(kind, red: ReducedObjective, u, v, hyper):
    """Gradient descent with Armijo backtracking on the stacked (U, V) of
    each problem of a stack (red, u and v carry a leading problem axis),
    all in lock-step: one loop, each product taken once for the stack.

    Every problem keeps its own step size, backtracking and stop reason,
    and takes exactly the steps it would take alone. A problem leaves the
    stack in the iteration it stops, so the loop holds only the problems
    still descending; ids maps each position to its problem. Each
    gradient reuses the residuals of the accepted trial. Returns the (U,
    V, TrainTrace) of each problem, in stack order."""
    k = len(u)
    res = _residuals(kind, red, u, v)
    f = _value(kind, red, u, v, res, hyper)
    if not np.isfinite(f).all():
        raise IngestError(f"objective {kind.value}: the starting value is not finite")
    step = np.ones(k)
    ids = np.arange(k)
    ends = [None] * k                       # the U, V and reason each stops with
    # (ids, entries, which of them count) per iteration
    values, steps, norms = [(ids, f, np.ones(k, dtype=bool))], [], []
    for it in range(hyper.max_iters):
        gu, gv = _gradient(kind, red, u, v, res, hyper)
        g_sq = _sq(gu) + _sq(gv)
        if not np.isfinite(g_sq).all():
            raise IngestError(f"objective {kind.value}: the squared gradient norm "
                              f"is not finite at iteration {it}")
        flat = g_sq == 0.0              # a stationary point: accepted, its trial discarded
        s = 2.0 * step                  # try growing the last accepted step
        for _bt in range(MAX_BACKTRACKS):
            s_col = s[:, None, None]
            u_new, v_new = u - s_col * gu, v - s_col * gv
            res_new = _residuals(kind, red, u_new, v_new)
            f_new = _value(kind, red, u_new, v_new, res_new, hyper)
            accepted = (f_new <= f - ARMIJO_ACCEPT * s * g_sq) | flat
            if np.count_nonzero(accepted) == len(s):
                break
            # shrink only the steps not accepted: an accepted problem
            # repeats its trial and gets the same value back
            s = np.where(accepted, s, s * ARMIJO_SHRINK)
        moved = accepted ^ flat         # those taking their step: flat ones are accepted
        decrease = (f - f_new) / np.maximum(np.abs(f), _TINY)
        keep = moved & (decrease >= hyper.rel_tol)
        norms.append((ids, np.sqrt(g_sq), accepted))
        values.append((ids, f_new, moved))
        steps.append((ids, s, moved))
        if np.count_nonzero(keep) < len(keep):
            # the flat and the failed leave before their step, rel_tol after it
            for j in np.flatnonzero(~keep).tolist():
                at_u, at_v = (u_new, v_new) if moved[j] else (u, v)
                ends[ids[j]] = (at_u[j].copy(), at_v[j].copy(), StopReason.REL_TOL
                                if accepted[j] else StopReason.LINE_SEARCH_FAILURE)
            red = _each(lambda field: field[keep], red)
            ids, u_new, v_new, f_new, s = (a[keep] for a in (ids, u_new, v_new, f_new, s))
            res_new = [e if e is None else e[keep] for e in res_new]
            if not len(ids):
                break
        u, v, res, f, step = u_new, v_new, res_new, f_new, s
    for j, i in enumerate(ids.tolist()):
        ends[i] = (u[j].copy(), v[j].copy(), StopReason.MAX_ITERS)

    def in_order(log):
        """Each problem's counted entries of a log, in iteration order."""
        if not log:
            return [[] for _ in range(k)]
        at, entries, counts = (np.concatenate(column) for column in zip(*log))
        at = at[counts]
        edges = np.cumsum(np.bincount(at, minlength=k)).tolist()
        entries = entries[counts][np.argsort(at, kind="stable")].tolist()
        return [entries[a:b] for a, b in zip([0, *edges], edges)]

    return [(uj, vj, TrainTrace(*traces, reason)) for (uj, vj, reason), *traces
            in zip(ends, *map(in_order, (values, steps, norms)))]


def minimize_many(obj: Objective, u0: np.ndarray, v0: np.ndarray,
                  hyper: HyperParams):
    """minimize for each problem of an Objective stack, its starts the
    stacks u0 and v0, descending as one stack. Returns the (u, v,
    TrainTrace) of each problem, in order; each equals what minimize
    gives for that problem alone."""
    return _descend(obj.kind, _reduce(obj), u0, v0, hyper)


def minimize(obj: Objective, u0: np.ndarray, v0: np.ndarray,
             hyper: HyperParams):
    """Gradient descent with Armijo backtracking on the stacked (U, V): a
    stack of one problem. The accepted objective sequence is
    non-increasing by construction. Returns (u, v, TrainTrace)."""
    return _descend(obj.kind, obj.reduced, u0[None], v0[None], hyper)[0]


def _objective_stack(kind: ObjectiveKind, x_std, a_std, scores, s_x, s_a) -> Objective:
    """The Objective stack of stacked standardized features and similarity
    targets (None where the kind fits none), with the preference scores
    where the kind fits them."""
    return Objective(kind, x_std, a_std, s_x, s_a, scores if _TERMS[kind][2] else None)


def build_objective(kind: ObjectiveKind, x_std: np.ndarray, a_std: np.ndarray,
                    r: PreferenceMatrix) -> Objective:
    """Assemble an Objective from standardized features and the preference
    matrix, with the targets the kind requires: S_X over R's rows, S_A over
    its columns."""
    fx, fa, _ = _TERMS[ObjectiveKind(kind)]
    return _objective_stack(ObjectiveKind(kind), x_std, a_std, r.scores,
                            similarity_stack(r.scores)[0] if fx else None,
                            similarity_stack(r.scores.T)[0] if fa else None)


def train(kind: ObjectiveKind, x: DescriptorTable, a: DescriptorTable,
          r: PreferenceMatrix, hyper: HyperParams):
    """Full training pipeline: standardize, pick t, initialize, descend;
    train_many of one.

    Returns (ModelParams, TrainTrace). Deterministic for a fixed hyper
    (including seed). max_iters=0 returns the initialization unchanged.
    """
    return train_many([(kind, x, a, r)], hyper)[0]


def _sources(kind, x, a, r, held):
    """A problem's fold X, fold A and R, and the sources of the S_X and S_A
    its kind fits (None where it fits none), each as (key, matrix, held-out
    index, axis): the matrix less that index along that axis (None: whole),
    the key naming it by its matrix's source and what it holds out."""
    i, j = held
    fx, fa, _ = _TERMS[kind]
    return (((id(x), i), x.features, i, 0), ((id(a), j), a.features, j, 0),
            ((id(r), "s_x", j), r.scores, j, 1) if fx else None,
            ((id(r), "s_a", i), r.scores.T, i, 1) if fa else None,
            ((id(r), "r"), r.scores, None, 0))


def _distinct(items, compute):
    """key -> (compute of a stack of matrices of one shape, the key's index
    in it) for items (key, matrix, index, axis), each distinct key's matrix
    less that index along that axis (None: whole): one compute per shape."""
    shapes = {}
    for key, matrix, index, axis in dict((item[0], item) for item in items).values():
        value = matrix if index is None else np.delete(matrix, index, axis)
        shapes.setdefault(value.shape, {})[key] = value
    return {key: (done, k) for same in shapes.values()
            for done in [compute(np.stack(list(same.values())))] for k, key in enumerate(same)}


def _gather(shared, items, compute, rows=None, cols=None):
    """What _distinct finds for items of one shape, from shared where it
    holds every key, else built for items alone: its result and their
    indices in it, or each item's matrix at its rows and cols, one gather."""
    found = shared if all(item[0] in shared for item in items) else _distinct(items, compute)
    done, at = found[items[0][0]][0], np.array([found[item[0]][1] for item in items])
    return (done, at) if rows is None else done[at[:, None, None], rows[:, :, None],
                                                cols[:, None, :]]


def _targets(scores):
    """The similarity target over the rows of each matrix of a stack."""
    return similarity_stack(scores)[0]


def _set_up(features, t):
    """A table stack standardized, its records, its numeric ranks (None for
    a fixed t) and its thin QRs."""
    z, records = standardize_stack(features)
    return z, records, None if t else np.linalg.matrix_rank(z), *np.linalg.qr(z)


def train_many(problems, hyper: HyperParams):
    """train for each (kind, x, a, r) of `problems`, or each (kind, x, a, r,
    (i, j)): the fold of the fold source (x, a, r) that holds dataset i and
    workflow j out (None: none). What more than one problem uses is set up
    once, before the stacks, in one stacked call per shape: each distinct
    fold X and A standardized, ranked and QR-factored, and each distinct
    target built, S_X of r less column j and S_A of r less row i, for the
    folds to slice; what one problem alone uses is built in its set-up
    stack. Grouped by kind, shapes and held-out axes, the problems are set
    up in stacks of one or at most _TARGET_CELLS target cells, each
    gathering its arrays by one fancy index apiece, and descended once per
    t. Returns the (ModelParams, TrainTrace) of each, in order, as train
    gives it alone."""
    problems = [(ObjectiveKind(kind), x, a, r, *(held or [(None, None)]))
                for kind, x, a, r, *held in problems]
    sources = [_sources(*problem) for problem in problems]
    uses = Counter(item[0] for items in sources for item in items if item)
    set_up, shared = partial(_set_up, t=hyper.t), {}
    # what more than one problem uses, built once before the stacks
    for part, compute in enumerate((set_up, set_up, _targets, _targets, np.asarray)):
        shared.update(_distinct((items[part] for items in sources if items[part]
                                 and uses[items[part][0]] > 1), compute))
    groups = {}
    for index, (kind, x, a, _, (i, j)) in enumerate(problems):
        groups.setdefault((kind, x.features.shape, a.features.shape,
                           i is None, j is None), []).append(index)
    out = [None] * len(problems)
    for (kind, (n, _), (m, _), whole_x, whole_a), members in groups.items():
        fx, fa, _ = _TERMS[kind]
        cells = fx * (n - (not whole_x)) ** 2 + fa * (m - (not whole_a)) ** 2
        size = max(1, _TARGET_CELLS // max(1, cells))
        by_t = {}   # t -> (index and records, red, u0, v0) of each set-up stack
        for start in range(0, len(members), size):
            stack = members[start:start + size]
            x_items, a_items, sx_items, sa_items, r_items = zip(*(sources[k] for k in stack))
            (zx, x_records, x_ranks, qx, rx), at_x = _gather(shared, x_items, set_up)
            (za, a_records, a_ranks, qa, ra), at_a = _gather(shared, a_items, set_up)
            i, j = zip(*(problems[k][4] for k in stack))
            rows, cols = kept(n, i), kept(m, j)
            ts = [hyper.t] * len(stack) if hyper.t else np.maximum(1, np.minimum(
                x_ranks[at_x], a_ranks[at_a])).tolist()
            obj = _objective_stack(
                kind, zx[at_x], za[at_a], _gather(shared, r_items, np.asarray, rows, cols),
                _gather(shared, sx_items, _targets, rows, rows) if fx else None,
                _gather(shared, sa_items, _targets, cols, cols) if fa else None)
            red = _reduce(obj, (qx[at_x], rx[at_x]), (qa[at_a], ra[at_a]))
            for t in dict.fromkeys(ts):
                pick = [k for k, tk in enumerate(ts) if tk == t]
                by_t.setdefault(t, []).append((
                    [(stack[k], x_records[at_x[k]], a_records[at_a[k]]) for k in pick],
                    _each(lambda field: field[pick], red),
                    *initialize(_each(lambda field: field[pick], obj), t, hyper)))
        for t, pieces in by_t.items():
            picked, reds, us, vs = zip(*pieces)
            results = _descend(kind, _each(lambda *f: np.concatenate(f), *reds),
                               np.concatenate(us), np.concatenate(vs), hyper)
            for (i, x_record, a_record), (u, v, trace) in zip(chain(*picked), results):
                out[i] = (ModelParams(
                    u=u, v=v, t=t, hyper=hyper, objective=kind.value,
                    x_standardization=x_record, a_standardization=a_record,
                    x_feature_names=problems[i][1].feature_names,
                    a_feature_names=problems[i][2].feature_names), trace)
    return out
