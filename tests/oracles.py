"""Brute-force reference implementations used to verify the package estimators.

Every function evaluates its defining formula with explicit Python loops
and shares no code with the package, so agreement between the two is a
meaningful check rather than a tautology.  The population moments of the
benchmark generators at the end come from their closed form instead.
"""

from __future__ import annotations

import numpy as np


def brute_hard_threshold(matrix: np.ndarray, u: float, keep_diagonal: bool = False) -> np.ndarray:
    out = np.array(matrix, dtype=float, copy=True)
    rows, cols = out.shape
    for a in range(rows):
        for b in range(cols):
            if a == b and keep_diagonal:
                continue
            if abs(out[a, b]) < u:
                out[a, b] = 0.0
    return out


def brute_row_autocov(data: np.ndarray, k: int) -> np.ndarray:
    n, p, q = data.shape
    mean = np.zeros((p, q))
    for t in range(n):
        mean = mean + data[t]
    mean = mean / n
    out = np.zeros((q, q))
    for t in range(n - k):
        lead = data[t + k] - mean
        base = data[t] - mean
        for a in range(q):
            for b in range(q):
                acc = 0.0
                for r in range(p):
                    acc += lead[r, a] * base[r, b]
                out[a, b] += acc
    return out / (n * p)


def brute_pair_autocov(data: np.ndarray, i: int, j: int, h: int) -> np.ndarray:
    n, _, q = data.shape
    mean_i = np.zeros(q)
    mean_j = np.zeros(q)
    for t in range(n):
        mean_i = mean_i + data[t, i - 1]
        mean_j = mean_j + data[t, j - 1]
    mean_i = mean_i / n
    mean_j = mean_j / n
    out = np.zeros((q, q))
    for t in range(n - h):
        for a in range(q):
            for b in range(q):
                out[a, b] += (data[t + h, i - 1, a] - mean_i[a]) * (
                    data[t, j - 1, b] - mean_j[b]
                )
    return out / n


def _loop_product_aat(mat: np.ndarray) -> np.ndarray:
    q = mat.shape[0]
    out = np.zeros((q, q))
    for a in range(q):
        for b in range(q):
            acc = 0.0
            for c in range(mat.shape[1]):
                acc += mat[a, c] * mat[b, c]
            out[a, b] = acc
    return out


def brute_w_stat(data: np.ndarray, k0: int, u_per_lag=None) -> np.ndarray:
    q = data.shape[2]
    acc = np.eye(q)
    for k in range(1, k0 + 1):
        cov = brute_row_autocov(data, k)
        if u_per_lag is not None:
            cov = brute_hard_threshold(cov, u_per_lag[k - 1])
        acc = acc + _loop_product_aat(cov)
    return acc


def brute_pair_scores(data: np.ndarray, gamma: np.ndarray, m: int) -> np.ndarray:
    """Maximal absolute cross-correlations over lags -m..m for all column pairs.

    Transformed column i is the p-vector series Y_t @ gamma[:, i]; the
    correlation uses full-sample component means and lag-0 variances.
    """
    n, p, q = data.shape
    z = np.zeros((q, n, p))
    for i in range(q):
        for t in range(n):
            for r in range(p):
                acc = 0.0
                for a in range(q):
                    acc += data[t, r, a] * gamma[a, i]
                z[i, t, r] = acc
    means = z.mean(axis=1)
    sigma = np.zeros((q, p))
    for i in range(q):
        for r in range(p):
            acc = 0.0
            for t in range(n):
                acc += (z[i, t, r] - means[i, r]) ** 2
            sigma[i, r] = np.sqrt(acc / n)
    best = np.zeros((q, q))
    for i in range(q):
        for j in range(q):
            peak = 0.0
            for h in range(-m, m + 1):
                for k in range(p):
                    for l in range(p):
                        acc = 0.0
                        if h >= 0:
                            for t in range(n - h):
                                acc += (z[i, t + h, k] - means[i, k]) * (
                                    z[j, t, l] - means[j, l]
                                )
                        else:
                            for t in range(n + h):
                                acc += (z[i, t, k] - means[i, k]) * (
                                    z[j, t - h, l] - means[j, l]
                                )
                        corr = abs(acc / n / (sigma[i, k] * sigma[j, l]))
                        peak = max(peak, corr)
            best[i, j] = peak
    return best


def brute_univariate_corr(x: np.ndarray, y: np.ndarray, h: int) -> float:
    """Lag-h sample correlation of two scalar series with lag-0 denominators."""
    n = x.size
    mx = x.sum() / n
    my = y.sum() / n
    num = 0.0
    for t in range(n - h):
        num += (x[t + h] - mx) * (y[t] - my)
    vx = sum((v - mx) ** 2 for v in x) / n
    vy = sum((v - my) ** 2 for v in y) / n
    return num / n / np.sqrt(vx * vy)


def dfs_components(edges, q: int) -> list[list[int]]:
    """Connected components over columns 1..q by iterative depth-first search."""
    adjacency: dict[int, set[int]] = {c: set() for c in range(1, q + 1)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen: set[int] = set()
    groups = []
    for start in range(1, q + 1):
        if start in seen:
            continue
        stack = [start]
        component = []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.append(node)
            stack.extend(adjacency[node] - seen)
        groups.append(sorted(component))
    return sorted(groups, key=lambda g: g[0])


def brute_subspace_distance(h1: np.ndarray, h2: np.ndarray) -> float:
    """Projector-formula evaluation of the span discrepancy."""

    def projector(h):
        return h @ np.linalg.inv(h.T @ h) @ h.T

    p1 = projector(np.asarray(h1, dtype=float))
    p2 = projector(np.asarray(h2, dtype=float))
    rmin = min(h1.shape[1], h2.shape[1])
    radicand = 1.0 - np.trace(p1 @ p2) / rmin
    return float(np.sqrt(max(radicand, 0.0)))


def _brute_full_mean(data: np.ndarray) -> np.ndarray:
    mean = np.zeros(data.shape[1:])
    for t in range(data.shape[0]):
        mean = mean + data[t]
    return mean / data.shape[0]


def brute_split_row_autocov(data: np.ndarray, indices: np.ndarray, k: int) -> np.ndarray:
    """Subsample row autocovariance about the full-sample mean, out-of-range lead terms zero."""
    n, p, q = data.shape
    idx = [int(v) for v in indices]
    mean = _brute_full_mean(data)
    out = np.zeros((q, q))
    for t in idx:
        if t + k > n - 1:
            continue
        lead = data[t + k] - mean
        base = data[t] - mean
        for a in range(q):
            for b in range(q):
                for r in range(p):
                    out[a, b] += lead[r, a] * base[r, b]
    return out / (len(idx) * p)


def brute_split_pair_product(data: np.ndarray, indices: np.ndarray, h: int) -> np.ndarray:
    """Subsample entry-pair covariances about the full-sample mean, out-of-range terms zero.

    Entry [a, b] averages the lead entry a at t + h times the base entry b at t.
    """
    n, p, q = data.shape
    idx = [int(v) for v in indices]
    mean = _brute_full_mean(data).reshape(p * q)
    out = np.zeros((p * q, p * q))
    for t in idx:
        if t + h > n - 1:
            continue
        base = data[t].reshape(p * q) - mean
        lead = data[t + h].reshape(p * q) - mean
        for a in range(p * q):
            for b in range(p * q):
                out[a, b] += lead[a] * base[b]
    return out / len(idx)


def brute_threshold_risk(first: np.ndarray, second: np.ndarray, u: float) -> float:
    """Squared Frobenius distance between the u-thresholded first and the second."""
    acc = 0.0
    rows, cols = first.shape
    for a in range(rows):
        for b in range(cols):
            kept = 0.0 if abs(first[a, b]) < u else first[a, b]
            acc += (kept - second[a, b]) ** 2
    return acc


def brute_sym_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigenpairs by per-column sign flips and tie-run re-sorts.

    Eigenvalues descend.  Each vector is flipped so that its first
    largest-magnitude entry is positive, and each run of exactly equal
    eigenvalues is ordered by descending lexicographic comparison of the
    sign-fixed vectors.
    """
    arr = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (arr + arr.T))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order].copy()
    q = vals.shape[0]
    for k in range(q):
        idx = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[idx, k] < 0:
            vecs[:, k] = -vecs[:, k]
    start = 0
    while start < q:
        stop = start + 1
        while stop < q and vals[stop] == vals[start]:
            stop += 1
        if stop - start > 1:
            cols = sorted(range(start, stop), key=lambda c: tuple(-vecs[:, c]))
            vecs[:, start:stop] = vecs[:, cols]
        start = stop
    return vals, vecs


def brute_matricize(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode unfolding by explicit index enumeration, lowest remaining mode fastest."""
    dims = tensor.shape
    order = len(dims)
    rest = [d for d in range(order) if d != mode - 1]
    width = 1
    for d in rest:
        width *= dims[d]
    out = np.zeros((dims[mode - 1], width))
    for flat in range(width):
        remainder = flat
        index = [0] * order
        for d in rest:
            index[d] = remainder % dims[d]
            remainder //= dims[d]
        for a in range(dims[mode - 1]):
            index[mode - 1] = a
            out[a, flat] = tensor[tuple(index)]
    return out


def brute_read_series(path) -> np.ndarray:
    """The (n, *dims) array of a valid series file, each token parsed by float().

    Matrix rows are read row-major, tensor rows first index fastest, one
    entry at a time.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    kind = lines[0].split(",")[1]
    header = [int(tok) for tok in lines[1].split(",")]
    n = header[0]
    dims = header[1:] if kind == "matrix" else header[2:]
    rows = [[float(tok) for tok in line.split(",")] for line in lines[2:] if line]
    out = np.zeros([n, *dims])
    for t, row in enumerate(rows):
        for flat, value in enumerate(row):
            index = [0] * len(dims)
            remainder = flat
            axes = range(len(dims) - 1, -1, -1) if kind == "matrix" else range(len(dims))
            for d in axes:
                index[d] = remainder % dims[d]
                remainder //= dims[d]
            out[(t, *index)] = value
    return out


# The benchmark generators restated, so the replay below shares no code with
# the package: burn-in steps and, per example, the row count p and the
# 1-based column partition.
_BURN_IN = 200
_EXAMPLES = {
    1: (3, [[1, 2, 3], [4, 5], [6]]),
    2: (6, [[1, 2, 3], [4, 5], [6]]),
    3: (10, [[1, 2, 3, 4], [5, 6, 7], [8, 9], [10]]),
}


def replay_generator(seed: int, example: int, n: int, rep: int):
    """The (phi, theta) of each group and the matrix A that one replication draws.

    The stream of replication (seed, example, n, rep) is read in the
    generator's order: per group, phi (U(-3, 3), rescaled to operator norm
    0.9), theta (U(-1, 1)), then a (burn-in + n + len(group) + 1, p) block
    of standard normals that is skipped; then A (U(-3, 3)) for examples 1
    and 2.  Example 3's A is fixed, not drawn, and is returned as None.
    """
    p, partition = _EXAMPLES[example]
    rng = np.random.default_rng((seed, example, n, rep))
    coefficients = []
    for group in partition:
        phi = rng.uniform(-3.0, 3.0, (p, p))
        phi *= 0.9 / np.linalg.norm(phi, ord=2)
        coefficients.append((phi, rng.uniform(-1.0, 1.0, (p, p))))
        rng.standard_normal((_BURN_IN + n + len(group) + 1, p))
    q = sum(len(group) for group in partition)
    a = None if example == 3 else rng.uniform(-3.0, 3.0, (q, q))
    return coefficients, a


def _varma_autocov(phi: np.ndarray, theta: np.ndarray, lags: int) -> list[np.ndarray]:
    """Gamma(h) = E eta_{t+h} eta_t', h = 0..lags, of a stationary VARMA(1, 1) path.

    The path is eta_t = phi eta_{t-1} + eps_t - theta eps_{t-1}, the
    generator's recursion.

    The state s_t = [eta_t; eps_t] follows s_t = F s_{t-1} + G eps_t with
    F = [[phi, -theta], [0, 0]] and G = [I; I].  Its stationary covariance
    P solves the Lyapunov equation P = F P F' + G G', one linear solve in
    vec(P), and E s_{t+h} s_t' = F^h P.
    """
    p = phi.shape[0]
    f = np.zeros((2 * p, 2 * p))
    f[:p, :p], f[:p, p:] = phi, -theta
    g = np.vstack([np.eye(p), np.eye(p)])
    vec_p = np.linalg.solve(np.eye(4 * p * p) - np.kron(f, f), (g @ g.T).ravel())
    state = vec_p.reshape(2 * p, 2 * p)
    out = []
    for _ in range(lags + 1):
        out.append(state[:p, :p])
        state = f @ state
    return out


def population_w(coefficients, example: int, a: np.ndarray, k0: int = 2):
    """W = I + sum_{k=1..k0} T_k T_k' from the population moments of an example's series.

    Returns (w, sigma_x, standardizer): sigma_x[k] is the latent row
    autocovariance Sigma_x(k) for k = 0..k0, so the observed one is
    a @ sigma_x[k] @ a.T, and standardizer is Sigma_y(0)^{-1/2}.

    Column c_s of a group (shift s = its place in the group) is eta_{t+s}
    of the group's path, so the latent row autocovariance between columns
    of one group at lag k is tr Gamma(k + s_a - s_b) / p, and 0 across
    groups.  The observed one is A Sigma_x(k) A', the standardizer is
    Sigma_y(0)^{-1/2}, and T_k = S Sigma_y(k) S.
    """
    p, partition = _EXAMPLES[example]
    q = a.shape[0]
    sigma_x = np.zeros((k0 + 1, q, q))
    for group, (phi, theta) in zip(partition, coefficients):
        traces = [np.trace(cov) / p for cov in _varma_autocov(phi, theta, k0 + len(group))]
        for s_a, col_a in enumerate(group):
            for s_b, col_b in enumerate(group):
                for k in range(k0 + 1):
                    sigma_x[k, col_a - 1, col_b - 1] = traces[abs(k + s_a - s_b)]
    sigma_y = a @ sigma_x @ a.T
    vals, vecs = np.linalg.eigh(sigma_y[0])
    s = (vecs / np.sqrt(vals)) @ vecs.T
    w = np.eye(q)
    for k in range(1, k0 + 1):
        t_k = s @ sigma_y[k] @ s
        w += t_k @ t_k.T
    return w, sigma_x, s
