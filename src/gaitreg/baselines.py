"""Comparison models: affine least squares and epsilon-SVR with RBF kernel.

The SVR dual is solved by sequential minimal optimization on the stacked
2n-variable box QP

    min  1/2 (z a)' K (z a) + p' a
    s.t. sum_t z_t a_t = 0,   0 <= a_t <= C

with a = [alpha; alpha*], z = [+1...; -1...], p = [eps - y; eps + y].
Each step picks its pair by the second-order rule of Fan, Chen & Lin
(JMLR 6, 2005), from the bias candidates v_t = -z_t G_t over the up and
low index sets.  i is the maximal violator: the up-set candidate with the
largest v_i = m_up.  j is the low-set candidate with v_j < m_up that
maximizes b_j^2 / a_j, twice the objective decrease of an unclipped step, with
b_j = m_up - v_j and a_j = K_ii + K_jj - 2 K_ij (floored at 1e-12).  Ties
go to the alpha side, then to the lowest index.  The step is capped by the
box and by b_j / a_j, and the fit stops once m_up - m_low < tol, m_low
being the smallest low-set candidate.  The gradient is maintained
incrementally.  Membership of the four up/low sets is kept as penalty
vectors, of which an update rewrites only its two entries: each scan is
then one add and one argmax/argmin over c0 + penalty.  The up sets'
penalties are -0.0 inside and -inf outside, exact because x + -0.0 == x
bit for bit; the low sets' are the candidate's shift inside (-eps or
+eps, exact because x + -eps == x - eps) and +inf outside.
The bias is the mean candidate over unbounded support vectors, or the
midpoint of the final bounds if none are free.  A fit that stops at the
update cap warns with a RuntimeWarning.

fit_svr_baseline builds one dense n x n float64 kernel per fold and shares
it between both targets; that array, n^2 * 8 bytes (190 MB for the 4,870
training rows of a default fold), is the fit's only n x n allocation.
Building it takes one more temporary, a 16-row block of 16 * n * 8 bytes
(0.6 MB at the default scale).

Every fit and predict takes x as rows and targets with as many rows (one
value per row for svr_fit); errors.checked_rows refuses anything else.

Least squares is one lstsq core behind two entry points: linear_fit on
the rows, and linear_fit_factored on each block's [R | Q'y] from
linear_factor.  A leave-one-out fold of the linear model reads 7 such rows
per training trial instead of every training row; its coefficients match
a per-fold lstsq on the scaled rows up to rounding in the last places.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, TrainError, checked_rows

DEFAULT_SVR_C = 10.0
DEFAULT_SVR_EPSILON = 0.01
DEFAULT_SVR_TOL = 1e-3
DEFAULT_SVR_MAX_UPDATES = 100_000
_KERNEL_BLOCK_ROWS = 16  # rows of the kernel's one block-sized temporary


@dataclass(frozen=True)
class LinearModel:
    """y = x @ weights.T + intercept."""

    weights: np.ndarray  # (n_outputs, n_features)
    intercept: np.ndarray  # (n_outputs,)


def _least_squares(design: np.ndarray, y: np.ndarray, n_rows: int) -> LinearModel:
    """lstsq on design, with the rank cut rcond=None gives on an (n_rows, p) design.

    design may be the design itself or a shorter matrix with the same
    singular values (see linear_fit_factored), so the cut is taken from
    n_rows, not from design's own row count.  A non-finite design is
    refused here, as LAPACK would print a complaint about it to stdout.
    """
    cols = design.shape[1]
    failed = f"least squares failed on a ({n_rows}, {cols}) design"
    if not np.isfinite(design).all():
        raise TrainError(f"{failed}: it holds a non-finite value")
    rcond = np.finfo(np.float64).eps * max(n_rows, cols)
    try:
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=rcond)
    except np.linalg.LinAlgError as exc:
        raise TrainError(f"{failed}: {exc}") from None
    if rank < cols:
        warnings.warn(
            f"rank-deficient design (rank {rank} < {cols}); returning the minimum-norm solution",
            stacklevel=3,
        )
    return LinearModel(weights=coef[:-1].T.copy(), intercept=coef[-1].copy())


def linear_fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least squares via orthogonal decomposition (numpy lstsq / SVD).

    Rank-deficient designs fall back to the minimum-norm solution with a
    warning instead of failing.  A design LAPACK cannot decompose raises
    TrainError.
    """
    x = checked_rows(x, "x")
    y = checked_rows(y, "y", (len(x), None))
    return _least_squares(np.column_stack([x, np.ones(len(x))]), y, len(x))


def linear_factor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[R | Q'y]: the first p + 1 rows of the R factor of [x, 1, y], x having p columns.

    R is the triangular factor of the block's design [x, 1] = Q R, and
    Q'y projects the targets onto its column space.  x needs at least
    p + 1 rows.
    """
    block = np.column_stack([x, np.ones(len(x)), y])
    return np.linalg.qr(block, mode="r")[: x.shape[1] + 1]


def linear_fit_factored(factors: np.ndarray, n_rows: int, scale: np.ndarray) -> LinearModel:
    """linear_fit on the rows of several blocks, given each block's linear_factor.

    factors is a (blocks, p + 1, p + 1 + outputs) stack, n_rows the blocks'
    total row count, and scale a (p + 1, p + 1) matrix applied to every
    row's [x, 1] (preprocessing.scaling_matrix).  The stacked triangular
    factors times scale have the singular values of the full scaled design,
    and the stacked Q'y carry all of its least-squares information (TSQR:
    Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34(1), 2012),
    so the solve reads (p + 1) rows per block, not the rows themselves.
    The coefficients match linear_fit on the scaled rows up to rounding,
    not bit for bit; rank cut, warning and TrainError are the same.
    """
    p = factors.shape[1]
    stacked = factors.reshape(-1, factors.shape[2])
    return _least_squares(stacked[:, :p] @ scale, stacked[:, p:], n_rows)


def linear_predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    return checked_rows(x, "x", (None, model.weights.shape[1])) @ model.weights.T + model.intercept


@np.errstate(over="ignore", invalid="ignore")
def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """k(u, v) = exp(-gamma * ||u - v||^2), dense matrix built in place.

    The result is the only full-size array: ||u||^2 + ||v||^2 - 2 u.v is
    formed from one a @ b.T product, then clipped at 0 and exponentiated
    in row blocks, which repeats the plain expression's operations in its
    order and so its bits.  The product is not split, because a blocked
    product is not bit-identical to the full one (numpy takes its
    symmetric path when a is b).  Beside the result, the build holds one
    block of _KERNEL_BLOCK_ROWS (16) rows and the two row-norm vectors.
    An overflowing squared distance gives 0, the limit, or NaN, which scores refuse.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    ra = np.sum(a**2, axis=1)
    rb = np.sum(b**2, axis=1)[None, :]
    out = a @ b.T
    out *= 2.0
    buf = np.empty((min(_KERNEL_BLOCK_ROWS, len(out)), out.shape[1]))
    for s in range(0, len(out), _KERNEL_BLOCK_ROWS):
        blk = out[s : s + _KERNEL_BLOCK_ROWS]
        t = np.add(ra[s : s + len(blk), None], rb, out=buf[: len(blk)])
        np.subtract(t, blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk *= -gamma
        np.exp(blk, out=blk)
    return out


def check_svr_settings(c, epsilon, gamma, tol, max_updates) -> None:
    """Raise ConfigError unless SMO can run with these settings; gamma None is allowed."""
    if not (0.0 < c < math.inf and 0.0 <= epsilon < math.inf):  # NaN fails every comparison
        raise ConfigError(f"need finite C > 0 and epsilon >= 0, got C={c}, epsilon={epsilon}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if max_updates < 1:
        raise ConfigError(f"max_updates must be >= 1, got {max_updates}")
    if gamma is not None and not 0.0 < gamma < math.inf:
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class SvrModel:
    """One fitted scalar-output epsilon-SVR."""

    coef: np.ndarray  # alpha - alpha* for every training row
    bias: float
    gamma: float
    support_vectors: np.ndarray  # rows with nonzero coef
    support_coef: np.ndarray
    converged: bool
    n_updates: int
    dual_objective: float


def svr_fit(
    x: np.ndarray,
    y: np.ndarray,
    c: float = DEFAULT_SVR_C,
    epsilon: float = DEFAULT_SVR_EPSILON,
    gamma: Optional[float] = None,
    tol: float = DEFAULT_SVR_TOL,
    max_updates: int = DEFAULT_SVR_MAX_UPDATES,
    *,
    kernel: Optional[np.ndarray] = None,
) -> SvrModel:
    """Fit one output dimension by SMO; see the module docstring.

    kernel, if given, must be rbf_kernel(x, x, gamma), which the fit reads
    and never writes; fit_svr_baseline shares one between its targets.
    """
    x = checked_rows(x, "x")
    y = checked_rows(y, "y", (len(x),))
    n = len(x)
    check_svr_settings(c, epsilon, gamma, tol, max_updates)
    gamma = 1.0 / x.shape[1] if gamma is None else gamma
    if kernel is None:
        kernel = rbf_kernel(x, x, gamma)
    elif np.shape(kernel) != (n, n):
        raise ConfigError(f"kernel of shape {np.shape(kernel)} given for {n} training rows")
    diag = kernel.diagonal().copy()
    c = float(c)
    epsilon = float(epsilon)
    alpha = np.zeros(n)  # pushes f(x_i) up
    alpha_star = np.zeros(n)  # pushes f(x_i) down
    # c0 = y - K beta; bias candidates are c0 - eps (alpha side), c0 + eps (alpha* side)
    c0 = y.copy()
    n_updates = 0
    converged = False
    eps_bound = 1e-12 * c
    hi_bound = c - eps_bound
    # set-membership penalties, see the module docstring; the low sets'
    # penalties also carry their candidates' shift, -eps and +eps
    pen_up_a = np.full(n, -0.0)  # alpha < C
    pen_up_s = np.full(n, -math.inf)  # alpha* > 0
    pen_low = np.full(2 * n, math.inf)
    pen_low[n:] = epsilon
    pen_low_a, pen_low_s = pen_low[:n], pen_low[n:]  # alpha > 0, alpha* < C
    # the low sets' candidates v_j, the alpha side first, +inf outside the sets
    low = np.empty(2 * n)
    low_a, low_s = low[:n], low[n:]
    gain = np.empty(2 * n)
    gain_a, gain_s = gain[:n], gain[n:]
    size = np.empty(2 * n)
    curv = np.empty(n)
    work = np.empty(n)
    while True:
        # first index: maximal violator over the up sets; alpha side wins ties
        np.add(c0, pen_up_a, out=work)
        ia = work.argmax()
        up_a = work.item(ia) - epsilon
        np.add(c0, pen_up_s, out=work)
        is_ = work.argmax()
        up_s = work.item(is_) + epsilon
        i_on_alpha = up_a >= up_s
        m_up = up_a if i_on_alpha else up_s
        bi = ia if i_on_alpha else is_

        np.add(c0, pen_low_a, out=low_a)
        np.add(c0, pen_low_s, out=low_s)
        m_low = low.min().item()
        if m_up - m_low < tol:
            converged = True
            break
        if n_updates >= max_updates:
            break
        # second index: the low-set candidate below m_up with the largest
        # decrease b^2 / a, b = m_up - v_j, a = K_ii + K_jj - 2 K_ij; the
        # first argmax lets the alpha side win ties, then the lowest index
        kernel_i = kernel[bi]
        np.add(diag, diag.item(bi), out=curv)
        curv -= np.multiply(kernel_i, 2.0, out=work)
        np.maximum(curv, 1e-12, out=curv)
        np.subtract(m_up, low, out=gain)
        # b * |b|: non-candidates score <= 0 and indices outside the low sets
        # -inf, so j is always a low-set member
        np.multiply(gain, np.abs(gain, out=size), out=gain)
        gain_a /= curv
        gain_s /= curv
        j = gain.argmax().item()
        j_on_alpha = j < n
        bj = j if j_on_alpha else j - n
        b_j = m_up - low.item(j)

        eta = diag.item(bi) + diag.item(bj) - 2.0 * kernel_i.item(bj)
        cap_i = (c - alpha.item(bi)) if i_on_alpha else alpha_star.item(bi)
        cap_j = alpha.item(bj) if j_on_alpha else (c - alpha_star.item(bj))
        step = min(cap_i, cap_j)
        if eta > 1e-12:
            step = min(step, b_j / eta)
        # only the two changed entries can enter or leave a set
        if i_on_alpha:
            a = alpha[bi] = min(alpha.item(bi) + step, c)
            pen_up_a[bi] = -math.inf if a >= hi_bound else -0.0
            pen_low_a[bi] = math.inf if a <= eps_bound else -epsilon
        else:
            a = alpha_star[bi] = max(alpha_star.item(bi) - step, 0.0)
            pen_up_s[bi] = -math.inf if a <= eps_bound else -0.0
            pen_low_s[bi] = math.inf if a >= hi_bound else epsilon
        if j_on_alpha:
            a = alpha[bj] = max(alpha.item(bj) - step, 0.0)
            pen_up_a[bj] = -math.inf if a >= hi_bound else -0.0
            pen_low_a[bj] = math.inf if a <= eps_bound else -epsilon
        else:
            a = alpha_star[bj] = min(alpha_star.item(bj) + step, c)
            pen_up_s[bj] = -math.inf if a <= eps_bound else -0.0
            pen_low_s[bj] = math.inf if a >= hi_bound else epsilon
        # beta_bi += step, beta_bj -= step, so K beta moves along two kernel rows
        c0 -= np.multiply(kernel_i, step, out=work)
        c0 += np.multiply(kernel[bj], step, out=work)
        n_updates += 1

    if not converged:
        warnings.warn(
            "SMO stopped at the update cap before reaching tol", RuntimeWarning, stacklevel=2
        )
    coef = alpha - alpha_star
    free_a = (alpha > eps_bound) & (alpha < hi_bound)
    free_s = (alpha_star > eps_bound) & (alpha_star < hi_bound)
    if np.any(free_a) or np.any(free_s):
        cands = np.concatenate([c0[free_a] - epsilon, c0[free_s] + epsilon])
        bias = float(cands.mean())
    else:
        bias = (m_up + m_low) / 2.0 if math.isfinite(m_up + m_low) else 0.0

    k_coef = y - c0  # the K beta that the updates kept, so no n x n pass
    dual = float(
        0.5 * coef @ k_coef + epsilon * (alpha.sum() + alpha_star.sum()) - y @ coef
    )
    support = np.abs(coef) > 0.0
    return SvrModel(
        coef=coef,
        bias=bias,
        gamma=float(gamma),
        support_vectors=x[support].copy(),
        support_coef=coef[support].copy(),
        converged=converged,
        n_updates=n_updates,
        dual_objective=dual,
    )


def svr_predict(model: SvrModel, x: np.ndarray) -> np.ndarray:
    """f(x) = sum_i coef_i k(x_i, x) + b of each row x, over the stored support vectors."""
    x = checked_rows(x, "x", (None, model.support_vectors.shape[1]))
    if len(model.support_coef) == 0:
        return np.full(len(x), model.bias)
    return rbf_kernel(x, model.support_vectors, model.gamma) @ model.support_coef + model.bias


@dataclass(frozen=True)
class SvrBaseline:
    """Multi-output SVR: independent fits on standardized targets."""

    models: tuple[SvrModel, ...]
    y_mean: np.ndarray
    y_std: np.ndarray


def fit_svr_baseline(
    x: np.ndarray,
    y: np.ndarray,
    c: float = DEFAULT_SVR_C,
    epsilon: float = DEFAULT_SVR_EPSILON,
    gamma: Optional[float] = None,
    tol: float = DEFAULT_SVR_TOL,
    max_updates: int = DEFAULT_SVR_MAX_UPDATES,
) -> SvrBaseline:
    """Standardize each target column (train statistics), fit one SVR per column.

    epsilon is therefore meant on the standardized scale, which keeps one
    tube width meaningful for targets in degrees and newton-meters alike.
    Every column is fitted on one shared kernel, the fit's only n x n array.
    """
    x = checked_rows(x, "x")
    y = checked_rows(y, "y", (len(x), None))
    check_svr_settings(c, epsilon, gamma, tol, max_updates)
    gamma = 1.0 / x.shape[1] if gamma is None else gamma
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = y.mean(axis=0)
        std = y.std(axis=0)
    if not np.isfinite(std).all():
        column = np.isfinite(std).argmin()
        raise TrainError(f"target column {column}'s standard deviation overflows float64")
    std = np.where(std == 0.0, 1.0, std)
    kernel = rbf_kernel(x, x, gamma)
    models = tuple(
        svr_fit(
            x, (y[:, d] - mean[d]) / std[d], c, epsilon, gamma, tol, max_updates, kernel=kernel
        )
        for d in range(y.shape[1])
    )
    return SvrBaseline(models=models, y_mean=mean, y_std=std)


def predict_svr_baseline(baseline: SvrBaseline, x: np.ndarray) -> np.ndarray:
    cols = [
        svr_predict(m, x) * s + mu
        for m, mu, s in zip(baseline.models, baseline.y_mean, baseline.y_std)
    ]
    return np.column_stack(cols)


def grid_search_svr(
    x: np.ndarray,
    y: np.ndarray,
    bounds: Sequence[int],
    grid_c: Sequence[float],
    grid_epsilon: Sequence[float],
    grid_gamma: Sequence[float],
    n_folds: int = 3,
    tol: float = DEFAULT_SVR_TOL,
    max_updates: int = DEFAULT_SVR_MAX_UPDATES,
) -> tuple[tuple[float, float, float], int, int]:
    """Pick (C, epsilon, gamma) by mean validation RMSE over trial-level folds.

    x and y are every trial's already-scaled inputs and targets, stacked;
    trial t owns rows bounds[t] to bounds[t + 1] (preprocessing.feature_rows).
    Trial t goes to fold t % n_folds, and one row mask picks each fold's
    rows, in stack order.  The score of a triple is the RMSE over all
    validation rows and both targets, averaged across folds.  Ties keep
    the lexicographically smallest triple because the grid is scanned in
    sorted order.  Returns (best triple, fits, capped fits): fits counts
    every single-target SMO fit, capped fits those that stopped at
    max_updates before reaching tol and were scored anyway.
    """
    if not (len(grid_c) and len(grid_epsilon) and len(grid_gamma)):
        raise ConfigError("hyperparameter grid must be non-empty")
    trials = len(bounds) - 1
    n_folds = min(n_folds, trials)
    if n_folds < 2:
        raise ConfigError(f"grid search needs >= 2 folds, got {n_folds}")
    fold = np.repeat(np.arange(trials) % n_folds, np.diff(bounds))  # each row's grid fold
    folds = [(x[fold != k], y[fold != k], x[fold == k], y[fold == k]) for k in range(n_folds)]

    best = None
    best_score = np.inf
    fits = capped = 0
    for c, eps, gamma in sorted(product(grid_c, grid_epsilon, grid_gamma)):
        scores = []
        for x_train, y_train, x_val, y_val in folds:
            fit = fit_svr_baseline(x_train, y_train, c, eps, gamma, tol, max_updates)
            fits += len(fit.models)
            capped += sum(not m.converged for m in fit.models)
            err = predict_svr_baseline(fit, x_val) - y_val
            scores.append(float(np.sqrt(np.mean(err**2))))
        score = float(np.mean(scores))
        if score < best_score:
            best_score = score
            best = (float(c), float(eps), float(gamma))
    return best, fits, capped
