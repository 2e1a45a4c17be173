"""Reference loops for the blocked pair evaluators in symkern.kernels.

These are the one-functional-at-a-time forms that the evaluators replaced,
with h' and h'' from separate profile functions; the row loops of the
triangular solves, the quadratic form and the Gram mirror; the
from-scratch native-space error that surrogate.target_errors gives for
every prefix of a selection; the f-greedy loop that carries the
validation pool through every pick; the error series of one test
trajectory at a time, with their mean, that metrics.compute_metrics and
metrics.mean_series replaced with one pass over the stacked trajectories;
the implicit-midpoint Newton with its matrix J H from an einsum
against J, where integrators._midpoint_newton swaps the row blocks of H;
and the predictor's momentum solve that kept a copy of the best iterate
and raised a stall exception, where predictor._solve_momentum returns its
last iterate and predict_step reads a stall from the residual.
The fast forms must reproduce them bit for bit, so the tests compare with
np.array_equal, or byte for byte where the sign of a zero matters.  The
forms that only the tests use live here too: the kernel value, its
gradient in the second argument, one mixed second derivative, the
potential and the single-point gradient of an expansion, and the power
function.
"""

import numpy as np

from symkern import kernels, surrogate
from symkern.greedy import POWER_CUTOFF
from symkern.errors import DimensionMismatch, NoConvergence
from symkern.integrators import NEWTON_MAX_ITER, SolveReport, step_count
from symkern.kernels import (
    COINCIDENT_R2,
    LONG,
    mixed2_self,
    profile_d1_zero,
    profile_derivs,
)
from symkern.linalg import cholesky_factor, cholesky_solve
from symkern.metrics import MetricSeries
from symkern.predictor import (
    DEFAULT_TOL_FACTOR,
    FIXED_POINT_MAX,
    NEWTON_MAX,
    STALL_RATIO,
    _momentum_jacobian,
)
from symkern.surrogate import Surrogate, _functional_arrays
from symkern.systems import apply_j, jmat


def profile(spec, s):
    """h(s) for array-like squared distances s."""
    s = np.asarray(s, dtype=float)
    e2 = spec.epsilon**2
    if spec.family == "gaussian":
        return np.exp(-e2 * s)
    if spec.family == "imq":
        return 1.0 / np.sqrt(1.0 + e2 * s)
    t = spec.epsilon * np.sqrt(s)
    if spec.family == "matern32":
        return (1.0 + t) * np.exp(-t)
    return (1.0 + t + t**2 / 3.0) * np.exp(-t)


def _check_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"point shapes differ: {x.shape} vs {y.shape}")
    return x, y


def kernel_grad2(spec, x, y):
    """Gradient of k(x, .) in the second argument, evaluated at y."""
    x, y = _check_pair(x, y)
    d = x - y
    return -2.0 * float(profile_derivs(spec, d @ d)[0]) * d


def kernel_eval(spec, x, y):
    """k(x, y) = h(||x - y||^2)."""
    x, y = _check_pair(x, y)
    d = x - y
    return float(profile(spec, d @ d))


def kernel_mixed2(spec, x, y, alpha, beta):
    """Mixed second derivative d/dx_alpha d/dy_beta k(x, y); at coincident
    points the analytic limit -2 h'(0) delta_ab."""
    x, y = _check_pair(x, y)
    return float(kernels.mixed2_field(spec, x[None, :], y, beta)[0, alpha])


def grad2_accumulate(spec, X, centers, alphas, coeffs):
    """sum_j c_j * d/dy_{alpha_j} k(X[i], centers[j]) over many points X."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0])
    for c_j, x_j, a_j in zip(coeffs, centers, alphas):
        D = X - x_j[None, :]
        s = np.einsum("ij,ij->i", D, D)
        out += (-2.0 * c_j) * profile_derivs(spec, s)[0] * D[:, a_j]
    return out


def surrogate_value(s, x):
    """The potential sum_j c_j d/dy_{a_j} k(x, x_j) whose gradient is s."""
    x = s._check_point(x)
    if s.size == 0:
        return 0.0
    return float(grad2_accumulate(s.kernel, x[None, :], s.centers, s.coords, s.coeffs)[0])


def gradient(s, x):
    """The gradient of the expansion s at one point x."""
    return s.gradient_many(s._check_point(x)[None, :])[0]


def power_function(spec, selected, query):
    """Norm of the part of the query representer orthogonal to the
    selection: the square root of the self Gram value minus v' G^-1 v,
    clamped at zero against roundoff."""
    p0 = mixed2_self(spec)
    if len(selected) == 0:
        return float(np.sqrt(p0))
    centers, coords = _functional_arrays(selected)
    F = kernels.mixed2_field(spec, centers, query.center, int(query.coord))
    v = F[np.arange(coords.size), coords]
    G = surrogate.gram_matrix(spec, selected)
    proj = float(v @ cholesky_solve(G, v))
    return float(np.sqrt(max(p0 - proj, 0.0)))


def profile_d1_zero_table(spec):
    """h'(0) from the per-family table that kernels.profile_d1_zero replaced."""
    e2 = spec.epsilon**2
    return {"gaussian": -e2, "imq": -0.5 * e2, "matern32": -0.5 * e2, "matern52": -e2 / 6.0}[
        spec.family
    ]


def profile_d1(spec, s):
    s = np.asarray(s, dtype=float)
    e2 = spec.epsilon**2
    if spec.family == "gaussian":
        return -e2 * np.exp(-e2 * s)
    if spec.family == "imq":
        return -0.5 * e2 * (1.0 + e2 * s) ** -1.5
    t = spec.epsilon * np.sqrt(s)
    if spec.family == "matern32":
        return -0.5 * e2 * np.exp(-t)
    return -(e2 / 6.0) * (1.0 + t) * np.exp(-t)


def profile_d2(spec, s):
    s = np.asarray(s, dtype=float)
    e2 = spec.epsilon**2
    if spec.family == "gaussian":
        return e2**2 * np.exp(-e2 * s)
    if spec.family == "imq":
        return 0.75 * e2**2 * (1.0 + e2 * s) ** -2.5
    t = spec.epsilon * np.sqrt(s)
    if spec.family == "matern52":
        return (e2**2 / 12.0) * np.exp(-t)
    near = s < COINCIDENT_R2
    t_safe = np.where(near, 1.0, t)
    return np.where(near, 0.0, e2**2 * np.exp(-t_safe) / (4.0 * t_safe))


def mixed2_field(spec, X, x, alpha):
    D = X - x[None, :]
    s = np.einsum("ij,ij->i", D, D)
    near = s < COINCIDENT_R2
    h1 = profile_d1(spec, s)
    h2 = profile_d2(spec, s)
    w = -4.0 * h2 * D[:, alpha]
    w[near] = 0.0
    F = w[:, None] * D
    F[:, alpha] += -2.0 * h1
    if np.any(near):
        F[near, :] = 0.0
        F[near, alpha] = -2.0 * profile_d1_zero(spec)
    return F


def mixed2_pairs(spec, X, coords, centers, alphas):
    """K[j, i] = mixed2_field(spec, X, centers[j], alphas[j])[i, coords[i]]."""
    idx = np.arange(X.shape[0])
    return np.array([mixed2_field(spec, X, c, int(a))[idx, coords]
                     for c, a in zip(centers, alphas)])


def gram_matrix(spec, centers, coords):
    m = coords.size
    G = np.empty((m, m))
    idx = np.arange(m)
    for i in range(m):
        F = mixed2_field(spec, centers, centers[i], int(coords[i]))
        G[i, :] = F[idx, coords]
    return mirror_upper(G)


def mirror_upper(S):
    return np.triu(S) + np.triu(S, 1).T


def tri_solve_lower(L, b):
    n = L.shape[0]
    x = np.array(b, dtype=float)
    for i in range(n):
        if i:
            x[i] -= L[i, :i] @ x[:i]
        x[i] /= L[i, i]
    return x


def tri_solve_upper(U, b):
    n = U.shape[0]
    x = np.array(b, dtype=float)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            x[i] -= U[i, i + 1:] @ x[i + 1:]
        x[i] /= U[i, i]
    return x


def quadratic_form(a, K, b):
    total = 0.0
    for j in range(b.size):
        total += float(a @ K[j]) * b[j]
    return total


def rkhs_inner(spec, sa, sb):
    idx = np.arange(sa.size)
    total = 0.0
    for j in range(sb.size):
        F = mixed2_field(spec, sa.centers, sb.centers[j], int(sb.coords[j]))
        total += float(sa.coeffs @ F[idx, sa.coords]) * sb.coeffs[j]
    return total


def mixed2_accumulate(spec, X, centers, alphas, coeffs):
    G = np.zeros_like(X)
    for c_j, x_j, a_j in zip(coeffs, centers, alphas):
        D = X - x_j[None, :]
        s = np.einsum("ij,ij->i", D, D)
        near = s < COINCIDENT_R2
        h1 = profile_d1(spec, s)
        h2 = profile_d2(spec, s)
        w = (-4.0 * c_j) * h2 * D[:, a_j]
        w[near] = 0.0
        G += w[:, None] * D
        G[:, a_j] += (-2.0 * c_j) * np.where(near, profile_d1_zero(spec), h1)
    return G


def _long_profiles(spec, s):
    e2 = LONG(spec.epsilon) ** 2
    if spec.family == "gaussian":
        ex = np.exp(-e2 * s)
        return -e2 * ex, e2 * e2 * ex
    if spec.family == "imq":
        u = 1.0 + e2 * s
        return -0.5 * e2 * u**-1.5, 0.75 * e2 * e2 * u**-2.5
    t = LONG(spec.epsilon) * np.sqrt(s)
    ex = np.exp(-t)
    if spec.family == "matern52":
        return -(e2 / 6.0) * (1.0 + t) * ex, (e2 * e2 / 12.0) * ex
    near = s < COINCIDENT_R2
    t_safe = np.where(near, LONG(1.0), t)
    h2 = np.where(near, LONG(0.0), e2 * e2 * np.exp(-t_safe) / (4.0 * t_safe))
    return -0.5 * e2 * ex, h2


def mixed2_accumulate_precise(spec, x, centers, alphas, coeffs):
    d = x.size
    D = np.asarray(x, dtype=LONG)[None, :] - np.asarray(centers, dtype=LONG)
    s = np.einsum("ij,ij->i", D, D)
    near = s < COINCIDENT_R2
    h1, h2 = _long_profiles(spec, s)
    c = np.asarray(coeffs, dtype=LONG)
    dc = D[np.arange(len(alphas)), alphas]
    w = -4.0 * h2 * dc * c
    w[near] = 0.0
    g = D.T @ w
    h1 = np.where(near, LONG(profile_d1_zero(spec)), h1)
    diag_terms = -2.0 * c * h1
    alphas = np.asarray(alphas)
    for b in range(d):
        g[b] += np.sum(diag_terms[alphas == b])
    return g.astype(float)


def synthetic_error_norm(kernel, target, sel_centers, sel_coords, sel_targets):
    """||u - s_m||: s_m refitted from scratch through the row-loop Gram
    matrix and triangular solves, the norm of the difference expansion
    through the per-center quadratic form of a fresh pair matrix."""
    diff = target
    if len(sel_coords):
        G = gram_matrix(kernel, np.asarray(sel_centers), np.asarray(sel_coords))
        L, _ = cholesky_factor(G)
        coeffs = tri_solve_upper(L.T, tri_solve_lower(L, sel_targets))
        diff = Surrogate(
            kernel,
            np.vstack([target.centers, sel_centers]),
            np.concatenate([target.coords, sel_coords]),
            np.concatenate([target.coeffs, -coeffs]),
        )
    K = mixed2_pairs(kernel, diff.centers, diff.coords, diff.centers, diff.coords)
    return float(np.sqrt(max(quadratic_form(diff.coeffs, K, diff.coeffs), 0.0)))


def greedy_validation_in_loop(kernel, data, max_centers, validation, tolerance=0.0):
    """The f-greedy loop with the validation pool extended next to the
    training pool at every pick.  Returns the trace fields by name."""
    X, d = data.inputs, data.dim
    max_m = min(max_centers, X.shape[0] * d)
    r = data.targets.ravel().copy()
    rv = validation.targets.ravel().copy()
    p2 = np.full(r.size, mixed2_self(kernel))
    Z, Zv = np.empty((r.size, max_m)), np.empty((rv.size, max_m))
    available = np.ones(r.size, dtype=bool)
    out = {k: [] for k in ("point_index", "coord", "max_residual", "power_value",
                           "val_residual")}
    for m in range(max_m):
        i = int(np.argmax(np.where(available, np.abs(r), -1.0)))
        a_m = float(np.abs(r[i]))
        b_m = float(np.sqrt(max(p2[i], 0.0)))
        if a_m < tolerance or b_m < POWER_CUTOFF:
            break
        out["max_residual"].append(a_m)
        out["power_value"].append(b_m)
        out["val_residual"].append(float(np.max(np.abs(rv))))
        j, a = divmod(i, d)
        z = (mixed2_field(kernel, X, X[j], a).ravel() - Z[:, :m] @ Z[i, :m]) / b_m
        zv = (mixed2_field(kernel, validation.inputs, X[j], a).ravel()
              - Zv[:, :m] @ Z[i, :m]) / b_m
        c_m = r[i] / b_m
        r -= c_m * z
        rv -= c_m * zv
        p2 -= z * z
        Z[:, m], Zv[:, m] = z, zv
        available[i] = False
        out["point_index"].append(j)
        out["coord"].append(a)
    out["final_train_residual"] = float(np.max(np.abs(r)))
    out["final_val_residual"] = float(np.max(np.abs(rv)))
    return out


def relative_error(approx, reference, label):
    """||x_approx - x_ref||_2 / ||x_ref||_2 at every macro time of one
    trajectory, the reference read every macro-stride-th state."""
    K = step_count(approx.step, reference.step)
    ref = reference.states[::K][: approx.states.shape[0]]
    num = np.linalg.norm(approx.states - ref, axis=1)
    den = np.linalg.norm(ref, axis=1)
    return MetricSeries(label, approx.times, num / den)


def energy_error(traj, sys, label, stride=1):
    """|H(x0) - H(x(t))| along one trajectory, subsampled by stride."""
    states = traj.states[::stride]
    H = sys.energy_many(states)
    return MetricSeries(label, traj.times[::stride], np.abs(H - H[0]))


def trajectory_metrics(pred, baseline, reference, sys):
    """The five error series of one test trajectory."""
    K = step_count(pred.step, reference.step)
    return {
        "rel_pred": relative_error(pred, reference, "predictor"),
        "rel_baseline": relative_error(baseline, reference, "baseline"),
        "energy_pred": energy_error(pred, sys, "predictor"),
        "energy_baseline": energy_error(baseline, sys, "baseline"),
        "energy_reference": energy_error(reference, sys, "reference", stride=K),
    }


def mean_series(series_list, label):
    """Pointwise mean of series on the abscissae of the first."""
    return MetricSeries(label, series_list[0].x, np.mean([s.y for s in series_list], axis=0))


def midpoint_newton(sys, X, dt, tol):
    """Newton jointly over a batch, DF = I - dt/2 einsum(J, H)."""
    J = jmat(sys.n)
    eye = np.eye(sys.dim)
    Xn = X.copy()
    for it in range(NEWTON_MAX_ITER):
        mid = 0.5 * (X + Xn)
        F = Xn - X - dt * apply_j(sys.grad_many(mid))
        res = np.max(np.abs(F), axis=1)
        if np.all(res <= tol):
            return Xn, it, res
        DF = eye[None, :, :] - 0.5 * dt * np.einsum("ij,mjk->mik", J, sys.hess_many(mid))
        Xn = Xn - np.linalg.solve(DF, F[:, :, None])[:, :, 0]
    raise NoConvergence("midpoint Newton did not converge")


class _Stalled(NoConvergence):
    """A momentum solve that stalled, with its gradient evaluations and the
    gradient at its starting point."""

    def __init__(self, message, evals, g_start):
        super().__init__(message)
        self.evals, self.g_start = evals, g_start


def solve_momentum(model, q0, p0, p_start, tol):
    """The momentum solve that keeps the best iterate seen: fixed-point
    sweeps, Newton on stall, _Stalled when the best residual stays above
    max(tol, dt * noise floor)."""
    s, dt, n = model.surrogate, model.delta_t, model.n
    tol_eff = max(tol, dt * model.gradient_noise_floor)

    def evaluate(P_):
        g_ = s.gradient_precise(np.concatenate([q0, P_]))
        F_ = p0 - dt * g_[:n] - P_
        return g_, F_, float(np.max(np.abs(F_)))

    P = p_start.copy()
    g, F, res = evaluate(P)
    evals = 1
    g_start = g
    best = (res, P.copy(), g)
    prev = np.inf
    for _ in range(FIXED_POINT_MAX):
        if res <= tol_eff:
            return P, g, evals, res
        if res > STALL_RATIO * prev:
            break
        prev = res
        P = P + F
        g, F, res = evaluate(P)
        evals += 1
        if res < best[0]:
            best = (res, P.copy(), g)
    for _ in range(NEWTON_MAX):
        if res <= tol_eff:
            return P, g, evals, res
        JF = -dt * _momentum_jacobian(s, q0, P, 1e-7) - np.eye(n)
        P = P - np.linalg.solve(JF, F)
        g, F, res = evaluate(P)
        evals += 2 * n + 1
        if res < best[0]:
            best = (res, P.copy(), g)
    if best[0] <= tol_eff:
        return best[1], best[2], evals, best[0]
    raise _Stalled(f"momentum solve stalled at residual {best[0]:.3e} (tol {tol_eff:.3e})",
                   evals, g_start)


def predict_step(model, x0, tol_factor=DEFAULT_TOL_FACTOR):
    """One predictor macro step through solve_momentum, restarted once from
    the explicit guess when the first attempt stalls."""
    x0 = np.asarray(x0, dtype=float)
    n = model.n
    q0, p0 = x0[:n], x0[n:]
    if model.surrogate.size == 0:
        return x0.copy(), SolveReport(0, 0.0)
    tol = tol_factor * (1.0 + np.max(np.abs(p0), initial=0.0))
    try:
        P, g, evals, res = solve_momentum(model, q0, p0, p0, tol)
    except _Stalled as first:
        P, g, evals, res = solve_momentum(model, q0, p0,
                                          p0 - model.delta_t * first.g_start[:n], tol)
        evals += first.evals
    Q = q0 + model.delta_t * g[n:]
    return np.concatenate([Q, P]), SolveReport(evals, res)
