"""Independent reference implementations used as test oracles.

Everything here is deliberately written as a second route to the same
answers: plain formulas and brute-force solvers that share no code with
the package internals they check, and the slower loops that speed-ups
replaced, which the new code must match bit for bit.
"""

from math import pi, tan

import numpy as np

from gaitreg.mlp import OptimizerState, loss_and_gradient, sgd_step
from gaitreg.rng import SplitMix64, derive_seed


def butterworth_warped_magnitude(freq_hz: float, cutoff_hz: float, fs: float, order: int) -> float:
    """Analytic |H(f)| = (1 + (f~/fc~)^(2*order))^(-1/2) for a bilinear design.

    The bilinear transform maps the digital frequency axis onto the analog
    prototype through f~ = (fs/pi) * tan(pi f / fs); a pre-warped design is
    an exact Butterworth response along that warped axis, with the -3 dB
    point pinned at the cutoff.
    """
    warped_ratio = tan(pi * freq_hz / fs) / tan(pi * cutoff_hz / fs)
    return (1.0 + warped_ratio ** (2 * order)) ** -0.5


def scalar_mlp_forward(weights, biases, x):
    """Forward pass with per-element Python arithmetic (no numpy matmul)."""
    h = [float(v) for v in x]
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for row in range(len(w)):
            z = float(b[row])
            for col in range(len(h)):
                z += float(w[row][col]) * h[col]
            out.append(z if layer == last else max(z, 0.0))
        h = out
    return h


def rbf(u, v, gamma):
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    return float(np.exp(-gamma * np.dot(d, d)))


def three_temporary_rbf_kernel(a, b, gamma):
    """The dense RBF kernel as one expression, with its three n x m temporaries.

    rbf_kernel builds the same matrix in place and must match it bit for bit.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def svr_dual_objective(kernel, y, alpha, alpha_star, epsilon):
    beta = alpha - alpha_star
    return float(
        0.5 * beta @ kernel @ beta + epsilon * (alpha.sum() + alpha_star.sum()) - y @ beta
    )


def brute_force_svr_dual(x, y, c, epsilon, gamma, iters=400_000):
    """Projected gradient on the stacked 2n-variable epsilon-SVR dual.

    Minimizes 1/2 (z a)' K (z a) + p' a over the box [0, C]^{2n}
    intersected with the hyperplane z' a = 0.  Projection onto the
    feasible set is exact: a(lam) = clip(v - lam z, 0, C), and the
    multiplier lam solving z' a(lam) = 0 is found by a breakpoint search
    (the continuous quadratic knapsack, Kiwiel, Math. Prog. 112, 2008).
    Intended for tiny problems only; returns the optimal dual objective.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    kernel = np.array([[rbf(x[i], x[j], gamma) for j in range(n)] for i in range(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    z = np.concatenate([np.ones(n), -np.ones(n)])

    def project(v):
        # s(lam) = z' a(lam) falls from nC to -nC, linearly between the
        # breakpoints where a component of v - lam z crosses 0 or C.  k is
        # the last breakpoint with s >= 0, so s(b_k) >= 0 > s(b_k+1) and the
        # root is interpolated on a segment with nonzero slope; on a flat
        # stretch of s = 0 the root is its right end, b_k itself.
        breaks = np.sort(np.concatenate([z * v, z * (v - c)]))
        sums = (z * np.clip(v - breaks[:, None] * z, 0.0, c)).sum(axis=1)
        k = np.flatnonzero(sums >= 0.0)[-1]
        lam = breaks[k] + sums[k] * (breaks[k + 1] - breaks[k]) / (sums[k] - sums[k + 1])
        return np.clip(v - lam * z, 0.0, c)

    lipschitz = 2.0 * float(np.linalg.eigvalsh(kernel).max()) + 1e-9
    step = 1.0 / lipschitz
    a = np.zeros(2 * n)
    for _ in range(iters):
        kb = kernel @ (a[:n] - a[n:])
        grad = np.concatenate([kb, -kb]) + p
        a_new = project(a - step * grad)
        if np.abs(a_new - a).max() < 1e-15:
            a = a_new
            break
        a = a_new
    return svr_dual_objective(kernel, y, a[:n], a[n:], epsilon)


def least_squares_fit(x, y):
    """Normal-equations affine fit; independent of the package's lstsq route."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([x, np.ones(len(x))])
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    return coef


def dft_energy_fraction(signal, fs, threshold_hz):
    """Reference spectral fraction via the direct O(n^2) DFT (vs the package's FFT)."""
    x = np.asarray(signal, dtype=float)
    x = x - x.mean()
    k = np.arange(len(x))
    power = np.abs(np.exp(-2j * np.pi * np.outer(k, k) / len(x)) @ x) ** 2
    freqs = np.abs(np.fft.fftfreq(len(x), 1.0 / fs))
    return float(power[freqs <= threshold_hz].sum() / power.sum())


def sosfilt_loop(sections, x):
    """The cascade applied causally, one Python-level step per sample.

    Direct form II transposed, each section started in its step-response
    steady state for the first sample.  The per-signal loop that
    gaitreg.preprocessing's batched filter replaced; it must match bit for
    bit.
    """
    y = np.array(x, dtype=np.float64)
    for b0, b1, b2, a1, a2 in sections:
        gain = (b0 + b1 + b2) / (1.0 + a1 + a2)
        s1 = (gain - b0) * y[0]
        s2 = (b2 - a2 * gain) * y[0]
        out = np.empty_like(y)
        for i, xi in enumerate(y):
            yi = b0 * xi + s1
            s1 = b1 * xi - a1 * yi + s2
            s2 = b2 * xi - a2 * yi
            out[i] = yi
        y = out
    return y


def loop_zero_phase(sections, x, order):
    """Reflect-pad 3 * order each side, sosfilt_loop forward and back, trim."""
    x = np.asarray(x, dtype=np.float64)
    pad = 3 * order
    padded = np.concatenate([x[pad - 1 :: -1], x, x[-1 : -pad - 1 : -1]])
    y = sosfilt_loop(sections, padded)
    y = sosfilt_loop(sections, y[::-1])[::-1]
    return y[pad : pad + len(x)]


def loop_trial_features(trial, sections, order, filter_targets=True):
    """One trial's (inputs, targets) from per-signal loop_zero_phase calls.

    sections must be designed for the trial's sample rate; the six input
    columns are the filtered angles and their np.gradient derivatives.
    """
    dt = 1.0 / trial.sample_rate_hz
    columns = []
    for angle in (trial.theta_hip, trial.theta_knee):
        x = loop_zero_phase(sections, angle, order)
        v = np.gradient(x, dt, edge_order=1)
        columns += [x, v, np.gradient(v, dt, edge_order=1)]
    targets = [trial.theta_ankle, trial.tau_ankle]
    if filter_targets:
        targets = [loop_zero_phase(sections, t, order) for t in targets]
    return np.column_stack(columns), np.column_stack(targets)


def masked_scan_smo(x, y, c, epsilon, gamma, tol, max_updates):
    """SMO for the epsilon-SVR dual with second-order pair selection.

    Rebuilds each of the four up/down index sets as a masked copy of c0 on
    every update.  i is the maximal violator over the up sets; j is the
    low-set candidate v_j < m_up that maximises b_j^2 / a_j, with
    b_j = m_up - v_j and a_j = K_ii + K_jj - 2 K_ij floored at 1e-12 (Fan,
    Chen & Lin, JMLR 6, 2005).  The same pair rule, tie-breaking and
    floating-point arithmetic as gaitreg's svr_fit, so its results must
    match bit for bit.  Returns (coef, bias, n_updates, converged).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    kernel = three_temporary_rbf_kernel(x, x, gamma)
    alpha = np.zeros(n)
    alpha_star = np.zeros(n)
    c0 = y.copy()
    n_updates = 0
    converged = False
    eps_bound = 1e-12 * c
    work = np.empty(n)
    while True:
        np.copyto(work, c0)
        work[alpha >= c - eps_bound] = -np.inf
        ia = int(np.argmax(work))
        up_a = work[ia] - epsilon
        np.copyto(work, c0)
        work[alpha_star <= eps_bound] = -np.inf
        is_ = int(np.argmax(work))
        up_s = work[is_] + epsilon
        i_on_alpha = up_a >= up_s
        m_up = up_a if i_on_alpha else up_s
        bi = ia if i_on_alpha else is_

        in_low_a = alpha > eps_bound
        in_low_s = alpha_star < c - eps_bound
        v_a = np.where(in_low_a, c0 - epsilon, np.inf)
        v_s = np.where(in_low_s, c0 + epsilon, np.inf)
        m_low = min(v_a.min(), v_s.min())

        if m_up - m_low < tol:
            converged = True
            break
        if n_updates >= max_updates:
            break
        curvature = np.maximum(kernel[bi, bi] + np.diag(kernel) - 2.0 * kernel[bi], 1e-12)
        scores = []
        for in_low, v in ((in_low_a, v_a), (in_low_s, v_s)):
            b = m_up - v
            score = np.full(n, -np.inf)
            cand = in_low & (v < m_up)
            score[cand] = b[cand] ** 2 / curvature[cand]
            scores.append(score)
        ja = int(np.argmax(scores[0]))
        js = int(np.argmax(scores[1]))
        j_on_alpha = scores[0][ja] >= scores[1][js]
        bj = ja if j_on_alpha else js
        b_j = m_up - (v_a[bj] if j_on_alpha else v_s[bj])

        eta = kernel[bi, bi] + kernel[bj, bj] - 2.0 * kernel[bi, bj]
        cap_i = (c - alpha[bi]) if i_on_alpha else alpha_star[bi]
        cap_j = alpha[bj] if j_on_alpha else (c - alpha_star[bj])
        step = min(cap_i, cap_j)
        if eta > 1e-12:
            step = min(step, b_j / eta)
        if i_on_alpha:
            alpha[bi] = min(alpha[bi] + step, c)
        else:
            alpha_star[bi] = max(alpha_star[bi] - step, 0.0)
        if j_on_alpha:
            alpha[bj] = max(alpha[bj] - step, 0.0)
        else:
            alpha_star[bj] = min(alpha_star[bj] + step, c)
        c0 -= step * kernel[bi]
        c0 += step * kernel[bj]
        n_updates += 1

    coef = alpha - alpha_star
    free_a = (alpha > eps_bound) & (alpha < c - eps_bound)
    free_s = (alpha_star > eps_bound) & (alpha_star < c - eps_bound)
    if np.any(free_a) or np.any(free_s):
        cands = np.concatenate([c0[free_a] - epsilon, c0[free_s] + epsilon])
        bias = float(cands.mean())
    else:
        bias = float((m_up + m_low) / 2.0) if np.isfinite(m_up + m_low) else 0.0
    return coef, bias, n_updates, converged


def scalar_loop_permutation(stream, n):
    """Fisher-Yates on a numpy array, one swap index computed per step.

    The loop gaitreg.rng.SplitMix64.permutation replaced; it must produce
    the same permutation from the same stream state.
    """
    perm = np.arange(n)
    if n < 2:
        return perm
    u = stream.uniform_block(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def reference_train(model, x, y, config):
    """Mini-batch SGD as one loss_and_gradient + sgd_step pair per batch.

    Per-layer gradients and updates on the model's own arrays, batches
    gathered by fancy indexing.  gaitreg.mlp.train must reach the same
    weights bit for bit.  Returns (model, per-epoch trace).
    """
    n = x.shape[0]
    state = OptimizerState.zeros_like(model)
    trace = []
    for epoch in range(config.epochs):
        perm = scalar_loop_permutation(SplitMix64(derive_seed(config.shuffle_seed, epoch)), n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            rows = perm[start : start + config.batch_size]
            loss, grads = loss_and_gradient(model, x[rows], y[rows], config.l2_penalty)
            sgd_step(model, state, grads, config)
            epoch_loss += loss * len(rows)
        trace.append(epoch_loss / n)
    return model, trace
