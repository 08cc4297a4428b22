"""Fine-tuning prediction models M_f with the monotonic constraint
(paper §IV-B).

Input is x = [h, p]: the parallelism-agnostic operator embedding h from
the frozen GNN encoder, plus the (scaled) parallelism degree p. Class 1
means "bottleneck". The monotonic constraint requires P(y=1 | h, p) to be
non-increasing in p — increasing parallelism can only reduce bottleneck
likelihood.

Three models, all from scratch in numpy (no sklearn/xgboost offline):

* :class:`MonotoneSVM` — Eq. 5: hinge loss with an RBF feature map on h
  (random Fourier features stand in for the kernel trick) and a *linear*
  term w_p·p constrained to w_p ≤ 0 by projection after every step.
* :class:`MonotoneGBDT` — XGBoost-style gradient boosting where splits on
  the parallelism feature that violate monotonicity get gain −∞ and leaf
  values are clipped to bound intervals propagated down the tree. A tree
  grows a level at a time: the sampled features are sorted once per tree
  and each node's order is its parent's, filtered, so a few array
  operations give every (feature, threshold) candidate of every node in
  the level and, from prefix sums, every child sum. Those sums round
  differently from a serial scan's, so the near-best and near-infeasible
  candidates are re-scored with the serial arithmetic in the serial order
  (the exact tie-break); the trees are the serial builder's, bit for bit.
  Trees are stored as flat arrays and predicted level by level.
* :class:`PlainNN` — an unconstrained MLP, the ablation's NN baseline
  (Fig. 11a): it can (and does) learn locally non-monotone responses.

:func:`min_safe_parallelism` is Algorithm 2 line 8: the smallest p whose
prediction is non-bottleneck — for a monotone model the first safe p of
one batched p = 1…p_max grid, which is what a binary search finds; for
any other model a linear scan.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def _balanced_weights(y: np.ndarray, sample_weight: np.ndarray | None) -> np.ndarray:
    """Class-balanced per-sample weights (optionally composed with caller
    weights). Bottleneck labels are heavily imbalanced — most historical
    deployments are over-provisioned — so unweighted fits collapse to the
    majority 'never a bottleneck' answer."""
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, float).copy()
    n_pos = max(1, int((y > 0).sum()))
    n_neg = max(1, int((y <= 0).sum()))
    n = len(y)
    w = w * np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return w


class MonotoneSVM:
    """Linear-in-p, RFF-kernelised-in-h SVM with w_p ≤ 0 (Eq. 5)."""

    is_monotone = True

    def __init__(
        self,
        d: int,
        *,
        rff_dim: int = 128,
        gamma: float | None = None,
        lam: float = 1e-3,
        epochs: int = 100,
        lr: float = 0.05,
        p_scale: float = 16.0,
        seed: int = 0,
    ) -> None:
        self.d = d
        self.gamma = gamma  # None → sharpened median heuristic at fit time
        #: Internal magnification of the parallelism feature. The scaled
        #: p lives in [0, ~0.6]; without magnification the hinge
        #: subgradient on w_p is tiny and the learned slope is too flat,
        #: which inflates the predicted bottleneck boundary.
        self.p_scale = p_scale
        self.rff_dim, self.lam, self.epochs, self.lr = rff_dim, lam, epochs, lr
        self.omega = np.zeros((d, rff_dim))
        self.beta = np.zeros(rff_dim)
        self.mu = np.zeros(d)
        self.sd = np.ones(d)
        self.w_e = np.zeros(rff_dim)
        self.w_p = 0.0
        self.b = 0.0
        self._seed = seed

    def _phi(self, h: np.ndarray) -> np.ndarray:
        z = (h - self.mu) / self.sd
        return np.sqrt(2.0 / self.rff_dim) * np.cos(z @ self.omega + self.beta)

    def _prepare(self, h: np.ndarray) -> None:
        """Standardise the embedding space and pick the RBF bandwidth by
        the median-distance heuristic, then draw the Fourier features."""
        self.mu = h.mean(axis=0)
        self.sd = h.std(axis=0)
        self.sd[self.sd < 1e-8] = 1.0
        z = (h - self.mu) / self.sd
        rng = np.random.default_rng(self._seed)
        if self.gamma is None:
            n = len(z)
            idx = rng.choice(n, size=min(128, n), replace=False)
            sub = z[idx]
            d2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(-1)
            med = float(np.median(d2[d2 > 0])) if (d2 > 0).any() else 1.0
            # Sharper than the plain median heuristic: bottleneck
            # boundaries are local in embedding space.
            gamma = 10.0 / max(med, 1e-6)
        else:
            gamma = self.gamma
        self.omega = rng.normal(0, np.sqrt(2 * gamma), size=(self.d, self.rff_dim))
        self.beta = rng.uniform(0, 2 * np.pi, size=self.rff_dim)

    def fit(
        self,
        h: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MonotoneSVM":
        """Projected subgradient descent on the (class-balanced, weighted)
        hinge objective; the projection w_p ← min(w_p, 0) enforces the
        monotonic constraint."""
        self._prepare(np.asarray(h))
        phi = self._phi(h)
        p = np.asarray(p) * self.p_scale
        t = np.where(np.asarray(y) > 0, 1.0, -1.0)
        w = _balanced_weights(np.asarray(y), sample_weight)
        rng = np.random.default_rng(self._seed + 1)
        n = len(t)
        idx = np.arange(n)
        for ep in range(self.epochs):
            rng.shuffle(idx)
            lr = self.lr / (1.0 + 0.01 * ep)
            for i in idx:
                margin = t[i] * (phi[i] @ self.w_e + self.w_p * p[i] + self.b)
                # regularisation subgradient
                gw = self.lam * self.w_e
                gp = self.lam * self.w_p
                gb = 0.0
                if margin < 1.0:
                    gw = gw - w[i] * t[i] * phi[i]
                    gp = gp - w[i] * t[i] * p[i]
                    gb = -w[i] * t[i]
                self.w_e -= lr * gw
                self.w_p -= lr * gp
                self.b -= lr * gb
                self.w_p = min(self.w_p, 0.0)  # monotonic projection
        return self

    def decision(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(h)
        return (
            self._phi(h) @ self.w_e
            + self.w_p * np.asarray(p) * self.p_scale
            + self.b
        )

    def predict_proba(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _sigmoid(2.0 * self.decision(h, p))

    def predict(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return (self.decision(h, p) > 0).astype(int)


#: Quantile positions of a node's candidate thresholds on a feature with
#: more than eight midpoints between distinct values.
_QUANTILES = np.linspace(0.05, 0.95, 8)

#: Relative slack on sums taken in another order than ``g[mask].sum()``.
#: Both orders err by at most ~n·eps of the summed magnitudes, far below
#: this for any node size the tuner reaches (n ≤ 10^5).
_REL_TOL = 1e-9


def split_candidates(s: np.ndarray, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate thresholds of every (feature, node) at once. Row f of
    ``s`` holds feature f's values, sorted within each node's segment of
    columns; segment k starts at column ``seg[k]``.

    A node's candidates on a feature are the midpoints between its
    consecutive distinct values or, past eight, their ``linear``
    quantiles at :data:`_QUANTILES`. numpy's quantile arithmetic is
    repeated elementwise, so they are bit for bit
    ``np.quantile(midpoints(np.unique(x)), _QUANTILES)``. Returns the
    (F, K, 8) thresholds, ascending, which of them exist, and how many
    of the node's values lie at or below each."""
    n_feat, n = s.shape
    # Columns where one of a node's distinct values starts, then the end.
    starts = np.ones((n_feat, n + 1), dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:n])
    starts[:, seg] = True
    at = np.flatnonzero(starts) % (n + 1)
    n_distinct = np.add.reduceat(starts[:, :n], seg, axis=1, dtype=np.intp)  # (F, K)
    per_row = n_distinct.sum(axis=1) + 1
    first = (np.cumsum(per_row) - per_row)[:, None] + np.cumsum(n_distinct, axis=1) - n_distinct
    n_mid = (n_distinct - 1)[..., None]
    big = n_mid > len(_QUANTILES)
    virtual = (n_mid - 1) * _QUANTILES  # numpy's (n - 1) * q
    prev = np.where(big, np.floor(virtual).astype(np.intp), np.arange(len(_QUANTILES)))
    valid = prev < n_mid
    # Where distinct values prev … prev + 3 start (the node's end past
    # its last one), and the first three of those values.
    pos = at[first[..., None, None] + np.minimum(prev[..., None] + np.arange(4), n_mid[..., None] + 1)]
    rows = (np.arange(n_feat) * n)[:, None, None, None]
    u0, u1, u2 = np.moveaxis(np.take(s, rows + np.minimum(pos[..., :3], n - 1)), -1, 0)
    mid_lo = (u0 + u1) / 2.0
    # numpy's _lerp towards the next midpoint, both branches
    mid_hi = (u1 + u2) / 2.0
    gamma = virtual - prev
    diff = mid_hi - mid_lo
    lerp = mid_lo + diff * gamma
    upper = gamma >= 0.5
    lerp[upper] = (mid_hi - diff * (1 - gamma))[upper]
    cands = np.where(big, lerp, mid_lo)
    # A candidate lies in [u0, u2] (in [u0, u1] unless it is a quantile),
    # so the values at or below it end where u1, u2 or the next starts.
    after = 1 + (cands >= u1) + ((prev + 2 <= n_mid) & (cands >= u2))
    below = np.take_along_axis(pos, after[..., None], axis=-1)[..., 0] - seg[:, None]
    return cands, valid, below


class _Node(NamedTuple):
    """A node of a growing tree: its index, its samples (ascending), the
    same sorted by each feature (F × n), their gradients and hessians in
    sample order, and the bounds on its leaf value."""

    index: int
    samples: np.ndarray
    order: np.ndarray
    g: np.ndarray
    h: np.ndarray
    lo: float
    hi: float


class MonotoneGBDT:
    """Gradient-boosted trees with a decreasing-monotone constraint on
    the parallelism feature (the last column), XGBoost-style.

    Each tree is stored flat — ``feature``, ``threshold``, ``left``,
    ``right``, ``value`` arrays, a leaf marked by feature −1 and children
    pointing at itself — so prediction walks every tree one level at a
    time for all rows at once."""

    is_monotone = True

    def __init__(
        self,
        *,
        n_rounds: int = 40,
        max_depth: int = 4,
        eta: float = 0.3,
        lam: float = 1.0,
        min_child: float = 1e-3,
        colsample: float = 0.35,
        seed: int = 0,
    ) -> None:
        self.n_rounds, self.max_depth, self.eta = n_rounds, max_depth, eta
        self.lam, self.min_child = lam, min_child
        #: Fraction of embedding features examined per tree (the
        #: parallelism feature is always included) — XGBoost's
        #: colsample_bytree.
        self.colsample = colsample
        self._rng = np.random.default_rng(seed)
        #: One (feature, threshold, left, right, value) per tree.
        self.trees: list[tuple[np.ndarray, ...]] = []
        self._packed: tuple[np.ndarray, ...] = ()
        self.base = 0.0

    # -- tree construction -------------------------------------------------
    def _leaf_value(self, g: float, hs: float, lo: float, hi: float) -> float:
        return float(np.clip(-g / (hs + self.lam), lo, hi))

    def _exact_gain(self, x, g, h, thr, is_p, lo, hi, parent_score):
        """One candidate scored with masked sums in row order; None when
        a child is too light or a parallelism split breaks monotonicity."""
        mask = x <= thr
        gl, hl = g[mask].sum(), h[mask].sum()
        gr, hr = g[~mask].sum(), h[~mask].sum()
        if hl < self.min_child or hr < self.min_child:
            return None
        if is_p and self._leaf_value(gl, hl, lo, hi) < self._leaf_value(gr, hr, lo, hi):
            return None  # violates decreasing monotonicity: gain −∞
        return gl**2 / (hl + self.lam) + gr**2 / (hr + self.lam) - parent_score

    def _best_splits(self, xt, nodes, gh):
        """Best (feature row, threshold), or None, for each node of one
        level of a tree on ``xt`` (features × samples, the parallelism
        feature last); ``gh`` holds every sample's (gradient, hessian).

        Every candidate of every node is scored at once from prefix sums
        along the sorted features. Those sums differ from masked sums in
        the last bits, so a node's winner is re-scored with
        :meth:`_exact_gain` in (feature, threshold) order among the only
        candidates that could win: the ones within the rounding slack of
        the node's best clearly feasible gain, and the ones whose
        child-weight, monotone or minimum-gain test lies within that
        slack. The first strict maximum wins, as in a serial scan."""
        n_feat, n_q = len(xt), len(_QUANTILES)
        sizes = np.array([len(nd.samples) for nd in nodes])
        seg = np.cumsum(sizes) - sizes
        order = np.concatenate([nd.order for nd in nodes], axis=1)
        s = np.take(xt, order + (np.arange(n_feat) * xt.shape[1])[:, None])
        cands, valid, below = split_candidates(s, seg)
        rows = (np.arange(n_feat) * s.shape[1])[:, None]
        sorted_gh = np.take(gh, order, axis=0)  # (F, n, 2)
        prefix = np.concatenate(
            [np.cumsum(sorted_gh[:, a : a + m], axis=1) for a, m in zip(seg, sizes)], axis=1
        )
        sums = np.take(prefix.reshape(-1, 2), rows[..., None] + seg[:, None] + below - 1, axis=0)
        gl, hl = sums[..., 0], sums[..., 1]  # (F, K, 8)

        g_sum = [nd.g.sum() for nd in nodes]
        h_sum = [nd.h.sum() for nd in nodes]
        parent = [gs**2 / (hs + self.lam) for gs, hs in zip(g_sum, h_sum)]  # as a serial scan
        # per-node scalars as (K, 1), against (F, K, 8) candidates
        g_sum, h_sum, parent_score, lo, hi = (
            np.array(v)[:, None]
            for v in (g_sum, h_sum, parent, [nd.lo for nd in nodes], [nd.hi for nd in nodes])
        )
        dg = _REL_TOL * np.array([np.abs(nd.g).sum() for nd in nodes])[:, None]
        dh = _REL_TOL * h_sum
        gr, hr = g_sum - gl, h_sum - hl
        sl, sr = hl + self.lam, hr + self.lam

        light = np.minimum(hl, hr) - self.min_child
        clear, possible = light > dh, light >= -dh

        rl, rr = -gl[-1] / sl[-1], -gr[-1] / sr[-1]
        drl = (dg + np.abs(rl) * dh) / sl[-1]
        drr = (dg + np.abs(rr) * dh) / sr[-1]
        drop = np.clip(rl, lo, hi) - np.clip(rr, lo, hi)
        same_bound = ((rl - drl >= hi) & (rr - drr >= hi)) | ((rl + drl <= lo) & (rr + drr <= lo))
        clear[-1] &= (drop > drl + drr) | same_bound
        possible[-1] &= drop >= -(drl + drr)

        tl, tr = gl**2 / sl, gr**2 / sr
        gain = tl + tr - parent_score
        slack = (
            (2 * np.abs(gl) * dg + tl * dh) / sl
            + (2 * np.abs(gr) * dg + tr * dh) / sr
            + _REL_TOL * (tl + tr + parent_score)
        )
        clear &= valid & (gain - slack > 1e-6)
        possible &= valid & (gain + slack > 1e-6)
        by_node = np.where(clear, gain, -np.inf).transpose(1, 0, 2).reshape(len(nodes), -1)
        top = by_node.argmax(axis=1)
        top_slack = slack.transpose(1, 0, 2).reshape(len(nodes), -1)[np.arange(len(nodes)), top]
        possible &= gain + slack >= by_node.max(axis=1)[:, None] - top_slack[:, None]

        splits = []
        for k, nd in enumerate(nodes):
            best_gain, best = 1e-6, None
            for i in np.flatnonzero(possible[:, k]):
                col, c = divmod(int(i), n_q)
                thr = cands[col, k, c]
                x = xt[col, nd.samples]
                gain_i = self._exact_gain(x, nd.g, nd.h, thr, col == n_feat - 1, nd.lo, nd.hi, parent[k])
                if gain_i is not None and gain_i > best_gain:
                    best_gain, best = gain_i, (col, thr)
            splits.append(best)
        return splits

    def _grow(self, xt, g, h, out):
        """One tree on the sampled features ``xt`` (features × samples,
        parallelism last), grown a level at a time; writes each sample's
        leaf value into ``out``."""
        feature, threshold, left, right, value = [], [], [], [], []
        n_feat = len(xt)
        gh = np.column_stack([g, h])
        inside = np.zeros(len(g), dtype=bool)

        def add(samples, order, lo, hi) -> _Node:
            nd = _Node(len(value), samples, order, g[samples], h[samples], lo, hi)
            feature.append(-1)
            threshold.append(0.0)
            left.append(nd.index)
            right.append(nd.index)
            value.append(self._leaf_value(nd.g.sum(), nd.h.sum(), lo, hi))
            return nd

        level = [add(np.arange(len(g)), np.argsort(xt, axis=1), -4.0, 4.0)]
        for depth in range(self.max_depth + 1):
            grow = [nd for nd in level if depth < self.max_depth and len(nd.samples) >= 4]
            split_of = dict(zip([nd.index for nd in grow], self._best_splits(xt, grow, gh) if grow else []))
            next_level = []
            for nd in level:
                split = split_of.get(nd.index)
                if split is None:
                    out[nd.samples] = value[nd.index]
                    continue
                col, thr = split
                mask = xt[col, nd.samples] <= thr
                bounds_l = bounds_r = (nd.lo, nd.hi)
                if col == n_feat - 1:
                    # Children of a parallelism split are bounded at the
                    # mean of their leaf values, so every leaf below the
                    # left child stays at or above every leaf below the
                    # right one.
                    wl = self._leaf_value(nd.g[mask].sum(), nd.h[mask].sum(), nd.lo, nd.hi)
                    wr = self._leaf_value(nd.g[~mask].sum(), nd.h[~mask].sum(), nd.lo, nd.hi)
                    mid = 0.5 * (wl + wr)
                    bounds_l, bounds_r = (mid, nd.hi), (nd.lo, mid)
                # The children's sorted orders are the parent's, filtered.
                inside[nd.samples[mask]] = True
                goes_left = inside[nd.order]
                inside[nd.samples[mask]] = False
                kids = (
                    add(nd.samples[mask], nd.order[goes_left].reshape(n_feat, -1), *bounds_l),
                    add(nd.samples[~mask], nd.order[~goes_left].reshape(n_feat, -1), *bounds_r),
                )
                feature[nd.index], threshold[nd.index] = col, float(thr)
                left[nd.index], right[nd.index] = kids[0].index, kids[1].index
                next_level += kids
            level = next_level
        return (
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold),
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(value),
        )

    # -- boosting ------------------------------------------------------------
    def fit(
        self,
        h: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MonotoneGBDT":
        X = np.column_stack([h, p])
        y = np.asarray(y, dtype=float)
        w = _balanced_weights(y, sample_weight)
        pos = float(np.clip((w * y).sum() / w.sum(), 1e-3, 1 - 1e-3))
        self.base = float(np.log(pos / (1 - pos)))
        f = np.full(len(y), self.base)
        p_idx = X.shape[1] - 1
        self.trees = []
        n_emb = X.shape[1] - 1
        n_take = max(4, int(np.ceil(self.colsample * n_emb)))
        # A feature with one value offers no split in any node.
        varies = (X[:, :n_emb] != X[:1, :n_emb]).any(axis=0)
        leaf = np.empty(len(y))
        for _ in range(self.n_rounds):
            prob = _sigmoid(f)
            grad = w * (prob - y)
            hess = np.maximum(w * prob * (1 - prob), 1e-6)
            feats = self._rng.choice(n_emb, size=min(n_take, n_emb), replace=False)
            feats = [*feats[varies[feats]], p_idx]  # the constrained feature is always in
            feature, *rest = self._grow(X[:, feats].T.copy(), grad, hess, leaf)
            cols = np.asarray(feats)[np.maximum(feature, 0)]
            self.trees.append((np.where(feature >= 0, cols, -1), *rest))
            f = f + self.eta * leaf
        if self.trees:
            self._pack()
        return self

    def _pack(self) -> None:
        """Concatenate the trees for prediction: each tree's root, then
        its node arrays with child indices shifted to the joint array."""
        sizes = [len(tree[0]) for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, value = (np.concatenate(a) for a in zip(*self.trees))
        shift = np.repeat(roots, sizes)
        self._packed = (roots, feature, threshold, left + shift, right + shift, value)

    def decision(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Log-odds for rows of (h, p); a single row of h is scored
        against every p."""
        h, p = np.atleast_2d(h), np.atleast_1d(p)
        n = max(len(h), len(p))
        X = np.column_stack([np.broadcast_to(h, (n, h.shape[1])), np.broadcast_to(p, (n,))])
        f = np.full(n, self.base)
        if not self.trees:
            return f
        roots, feature, threshold, left, right, value = self._packed
        rows = np.arange(n)
        node = np.repeat(roots[:, None], n, axis=1)  # trees × rows
        for _ in range(self.max_depth):
            go_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        for contrib in self.eta * value[node]:  # tree by tree, as fitted
            f = f + contrib
        return f

    def predict_proba(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision(h, p))

    def predict(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return (self.decision(h, p) > 0).astype(int)


class PlainNN:
    """Unconstrained 2-layer MLP on [h, p] — the Fig. 11a NN ablation.
    Nothing enforces monotonicity in p, so its bottleneck-boundary search
    can (and in the ablation does) stop at unsafe parallelisms."""

    is_monotone = False

    def __init__(self, d: int, *, hidden: int = 32, epochs: int = 200, lr: float = 1e-2, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.W1 = rng.normal(0, np.sqrt(2.0 / (d + 1)), (d + 1, hidden))
        self.b1 = np.zeros(hidden)
        self.W2 = rng.normal(0, np.sqrt(2.0 / hidden), (hidden, 1))
        self.b2 = np.zeros(1)
        self.epochs, self.lr = epochs, lr

    def _forward(self, X):
        pre1 = X @ self.W1 + self.b1
        u = np.maximum(pre1, 0)
        out = u @ self.W2 + self.b2
        return pre1, u, out.ravel()

    def fit(
        self,
        h: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "PlainNN":
        X = np.column_stack([h, p])
        y = np.asarray(y, dtype=float)
        w = _balanced_weights(y, sample_weight)
        w = w / w.sum()
        m = {k: 0.0 for k in ("W1", "b1", "W2", "b2")}
        v = {k: 0.0 for k in ("W1", "b1", "W2", "b2")}
        t = 0
        for _ in range(self.epochs):
            pre1, u, logit = self._forward(X)
            prob = _sigmoid(logit)
            dlogit = (w * (prob - y)).reshape(-1, 1)
            grads = {
                "W2": u.T @ dlogit,
                "b2": dlogit.sum(axis=0),
            }
            du = dlogit @ self.W2.T
            dpre1 = du * (pre1 > 0)
            grads["W1"] = X.T @ dpre1
            grads["b1"] = dpre1.sum(axis=0)
            t += 1
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + 0.1 * g
                v[k] = 0.999 * v[k] + 0.001 * g * g
                mh = m[k] / (1 - 0.9**t)
                vh = v[k] / (1 - 0.999**t)
                setattr(self, k, getattr(self, k) - self.lr * mh / (np.sqrt(vh) + 1e-8))
        return self

    def decision(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        X = np.column_stack([np.atleast_2d(h), np.atleast_1d(p)])
        return self._forward(X)[2]

    def predict_proba(self, h, p):
        return _sigmoid(self.decision(h, p))

    def predict(self, h, p):
        return (self.decision(h, p) > 0).astype(int)


def make_model(kind: str, d: int, *, seed: int = 0):
    """Factory for the fine-tuning model M_f."""
    if kind == "svm":
        return MonotoneSVM(d, seed=seed)
    if kind == "xgboost":
        return MonotoneGBDT(seed=seed)
    if kind == "nn":
        return PlainNN(d, seed=seed)
    raise ValueError(f"unknown fine-tune model {kind!r}")


def min_safe_parallelism(model, h: np.ndarray, p_max: int, scale, *, threshold=0.5):
    """Algorithm 2, line 8: min{p ≤ p_max | M_f(h, p) = 0}, or p_max when
    no safe p is predicted. ``scale`` maps an array of raw p to the
    model's feature space.

    A monotone model scores p = 1…p_max in one ``predict_proba`` call, h
    broadcast over the grid, and the first safe p is the answer: the
    predicted probability is non-increasing in p, so this is exactly what
    a binary search over the same values finds. Any other model is
    scanned with one-row calls up to the first safe p, where it may stop
    in a hole of a non-monotone response (the Fig. 11a failure mode).

    ``threshold`` may be a sequence; the answers, one per threshold, are
    then read from the same probabilities.
    """
    thresholds = np.atleast_1d(threshold)
    grid = np.asarray(scale(np.arange(1, p_max + 1)), dtype=float)
    h2 = np.atleast_2d(h)
    if getattr(model, "is_monotone", False):
        prob = model.predict_proba(h2, grid)
    else:
        prob = []
        for q in grid:
            prob.append(model.predict_proba(h2, q[None])[0])
            if prob[-1] <= thresholds.min():
                break
        prob = np.asarray(prob)
    safe = prob[:, None] <= thresholds
    first = np.where(safe.any(axis=0), safe.argmax(axis=0) + 1, p_max)
    return int(first[0]) if np.ndim(threshold) == 0 else [int(p) for p in first]
