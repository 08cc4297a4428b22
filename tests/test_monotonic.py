"""Tests for the monotonic fine-tuning models M_f (§IV-B)."""
import numpy as np
import pytest

from repro.core.monotonic import (
    _QUANTILES,
    MonotoneGBDT,
    MonotoneSVM,
    PlainNN,
    _balanced_weights,
    _sigmoid,
    make_model,
    min_safe_parallelism,
    split_candidates,
)


# -- reference implementations ----------------------------------------------
class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = 0.0

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.left is None:
            return np.full(len(X), self.value)
        mask = X[:, self.feature] <= self.threshold
        out = np.empty(len(X))
        out[mask] = self.left.predict(X[mask])
        out[~mask] = self.right.predict(X[~mask])
        return out

    def preorder(self):
        """(feature, threshold, value) of every node, root first."""
        yield self.feature, self.threshold, self.value
        if self.left is not None:
            yield from self.left.preorder()
            yield from self.right.preorder()


class ReferenceGBDT:
    """The serial monotone GBDT builder: per node and sampled feature,
    ``np.unique`` and ``np.quantile`` for the candidate thresholds, then
    four masked sums per threshold. :class:`MonotoneGBDT` must build the
    same trees."""

    def __init__(self, *, n_rounds=40, max_depth=4, eta=0.3, lam=1.0, min_child=1e-3, colsample=0.35, seed=0):
        self.n_rounds, self.max_depth, self.eta = n_rounds, max_depth, eta
        self.lam, self.min_child, self.colsample = lam, min_child, colsample
        self._rng = np.random.default_rng(seed)
        self.trees: list[_TreeNode] = []
        self.base = 0.0

    def _leaf_value(self, g, hs, lo, hi):
        return float(np.clip(-g / (hs + self.lam), lo, hi))

    def _build(self, X, g, h, depth, lo, hi, p_idx, feats) -> _TreeNode:
        node = _TreeNode()
        node.value = self._leaf_value(g.sum(), h.sum(), lo, hi)
        if depth >= self.max_depth or len(X) < 4:
            return node
        best_gain = 1e-6
        best = None
        parent_score = (g.sum() ** 2) / (h.sum() + self.lam)
        for f in feats:
            xs = np.unique(X[:, f])
            if len(xs) < 2:
                continue
            cands = (xs[:-1] + xs[1:]) / 2.0
            if len(cands) > 8:
                cands = np.quantile(cands, np.linspace(0.05, 0.95, 8))
            for thr in cands:
                mask = X[:, f] <= thr
                gl, hl = g[mask].sum(), h[mask].sum()
                gr, hr = g[~mask].sum(), h[~mask].sum()
                if hl < self.min_child or hr < self.min_child:
                    continue
                if f == p_idx:
                    wl = self._leaf_value(gl, hl, lo, hi)
                    wr = self._leaf_value(gr, hr, lo, hi)
                    if wl < wr:
                        continue
                gain = gl**2 / (hl + self.lam) + gr**2 / (hr + self.lam) - parent_score
                if gain > best_gain:
                    best_gain = gain
                    best = (f, thr, mask)
        if best is None:
            return node
        f, thr, mask = best
        node.feature, node.threshold = f, float(thr)
        if f == p_idx:
            wl = self._leaf_value(g[mask].sum(), h[mask].sum(), lo, hi)
            wr = self._leaf_value(g[~mask].sum(), h[~mask].sum(), lo, hi)
            mid = 0.5 * (wl + wr)
            node.left = self._build(X[mask], g[mask], h[mask], depth + 1, mid, hi, p_idx, feats)
            node.right = self._build(X[~mask], g[~mask], h[~mask], depth + 1, lo, mid, p_idx, feats)
        else:
            node.left = self._build(X[mask], g[mask], h[mask], depth + 1, lo, hi, p_idx, feats)
            node.right = self._build(X[~mask], g[~mask], h[~mask], depth + 1, lo, hi, p_idx, feats)
        return node

    def fit(self, h, p, y, sample_weight=None):
        X = np.column_stack([h, p])
        y = np.asarray(y, dtype=float)
        w = _balanced_weights(y, sample_weight)
        pos = float(np.clip((w * y).sum() / w.sum(), 1e-3, 1 - 1e-3))
        self.base = float(np.log(pos / (1 - pos)))
        f = np.full(len(y), self.base)
        p_idx = X.shape[1] - 1
        n_emb = X.shape[1] - 1
        n_take = max(4, int(np.ceil(self.colsample * n_emb)))
        for _ in range(self.n_rounds):
            prob = _sigmoid(f)
            grad = w * (prob - y)
            hess = np.maximum(w * prob * (1 - prob), 1e-6)
            feats = list(self._rng.choice(n_emb, size=min(n_take, n_emb), replace=False))
            feats.append(p_idx)
            tree = self._build(X, grad, hess, 0, -4.0, 4.0, p_idx, feats)
            self.trees.append(tree)
            f = f + self.eta * tree.predict(X)
        return self

    def decision(self, h, p):
        X = np.column_stack([np.atleast_2d(h), np.atleast_1d(p)])
        f = np.full(len(X), self.base)
        for tree in self.trees:
            f = f + self.eta * tree.predict(X)
        return f

    def predict_proba(self, h, p):
        return _sigmoid(self.decision(h, p))


def reference_search(model, h, p_max, scale, threshold=0.5):
    """Algorithm 2 line 8 with one-row probes: binary search for a
    monotone model, linear scan otherwise."""
    h2 = np.atleast_2d(h)

    def is_safe(p):
        return float(model.predict_proba(h2, np.array([scale(p)]))[0]) <= threshold

    if model.is_monotone:
        lo, hi = 1, p_max
        if not is_safe(hi):
            return p_max
        while lo < hi:
            mid = (lo + hi) // 2
            if is_safe(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo
    for p in range(1, p_max + 1):
        if is_safe(p):
            return p
    return p_max


def flat_preorder(tree):
    """(feature, threshold, value) of every node of a flat tree, root
    first, in the reference's order."""
    feature, threshold, left, right, value = tree
    out, stack = [], [0]
    while stack:
        i = stack.pop()
        out.append((int(feature[i]), float(threshold[i]), float(value[i])))
        if feature[i] >= 0:
            stack += [right[i], left[i]]
    return out


def _boundary_data(n=600, d=6, seed=0):
    """Synthetic task: bottleneck iff p < boundary(h), boundary a smooth
    function of the first feature."""
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 1, (n, d))
    boundary = 0.3 + 0.4 * (1 / (1 + np.exp(-h[:, 0])))  # in (0.3, 0.7)
    p = rng.uniform(0, 1, n)
    y = (p < boundary).astype(int)
    return h, p, y, boundary


MODELS = {
    "svm": lambda d: MonotoneSVM(d, seed=0, epochs=60),
    "xgboost": lambda d: MonotoneGBDT(seed=0, n_rounds=30),
    "nn": lambda d: PlainNN(d, seed=0, epochs=150),
}


@pytest.mark.parametrize("kind", ["svm", "xgboost", "nn"])
class TestAllModels:
    def test_fits_and_predicts(self, kind):
        h, p, y, _ = _boundary_data()
        m = MODELS[kind](h.shape[1]).fit(h, p, y)
        acc = (m.predict(h, p) == y).mean()
        assert acc > 0.8, f"{kind} acc={acc}"

    def test_proba_in_unit_interval(self, kind):
        h, p, y, _ = _boundary_data()
        m = MODELS[kind](h.shape[1]).fit(h, p, y)
        pr = m.predict_proba(h[:50], p[:50])
        assert np.all(pr >= 0) and np.all(pr <= 1)

    def test_handles_sample_weight(self, kind):
        h, p, y, _ = _boundary_data(n=200)
        w = np.ones(len(y))
        m = MODELS[kind](h.shape[1]).fit(h, p, y, sample_weight=w)
        assert m.predict(h[:5], p[:5]).shape == (5,)

    def test_handles_imbalance(self, kind):
        """With 5 % positives an unweighted fit collapses to all-0; the
        balanced weighting must keep recall on the positive class."""
        rng = np.random.default_rng(1)
        n = 800
        h = rng.normal(0, 1, (n, 4))
        p = rng.uniform(0, 1, n)
        y = ((p < 0.15) & (h[:, 0] > 0)).astype(int)
        m = MODELS["svm" if kind == "svm" else kind](4) if kind != "svm" else MonotoneSVM(4, seed=0, epochs=60)
        m = MODELS[kind](4).fit(h, p, y)
        pos = y == 1
        if pos.sum() > 5:
            recall = (m.predict(h[pos], p[pos]) == 1).mean()
            assert recall > 0.5, f"{kind} recall={recall}"


@pytest.mark.parametrize("kind", ["svm", "xgboost"])
class TestMonotoneConstraint:
    def test_probability_nonincreasing_in_p(self, kind):
        """The formal constraint: p(h, p1) ≥ p(h, p2) whenever p1 ≤ p2."""
        h, p, y, _ = _boundary_data()
        m = MODELS[kind](h.shape[1]).fit(h, p, y)
        ps = np.linspace(0, 1, 21)
        for row in h[:20]:
            probs = m.predict_proba(np.tile(row, (21, 1)), ps)
            assert np.all(np.diff(probs) <= 1e-9), f"{kind} not monotone"

    def test_is_monotone_flag(self, kind):
        assert MODELS[kind](4).is_monotone


class TestSVMSpecifics:
    def test_wp_nonpositive(self):
        h, p, y, _ = _boundary_data()
        m = MonotoneSVM(h.shape[1], seed=0, epochs=30).fit(h, p, y)
        assert m.w_p <= 0.0


class TestGBDTSpecifics:
    def test_monotone_even_with_adversarial_labels(self):
        """Labels that *reward* non-monotone behaviour must still produce
        a monotone ensemble (violating splits get gain −∞)."""
        rng = np.random.default_rng(2)
        n = 400
        h = rng.normal(0, 1, (n, 3))
        p = rng.uniform(0, 1, n)
        y = ((p > 0.4) & (p < 0.6)).astype(int)  # bump in the middle
        m = MonotoneGBDT(seed=0, n_rounds=20).fit(h, p, y)
        ps = np.linspace(0, 1, 31)
        for row in h[:10]:
            probs = m.predict_proba(np.tile(row, (31, 1)), ps)
            assert np.all(np.diff(probs) <= 1e-9)


class TestPlainNN:
    def test_not_monotone_flag(self):
        assert not PlainNN(4).is_monotone

    def test_can_learn_nonmonotone_shape(self):
        """The ablation's point: the NN *can* fit a non-monotone response,
        which is what breaks its boundary search."""
        rng = np.random.default_rng(3)
        n = 600
        h = np.zeros((n, 2))
        p = rng.uniform(0, 1, n)
        y = ((p > 0.4) & (p < 0.7)).astype(int)
        m = PlainNN(2, seed=0, epochs=400).fit(h, p, y)
        probs = m.predict_proba(np.zeros((31, 2)), np.linspace(0, 1, 31))
        assert np.any(np.diff(probs) > 1e-6)  # goes up somewhere


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_model("svm", 4), MonotoneSVM)
        assert isinstance(make_model("xgboost", 4), MonotoneGBDT)
        assert isinstance(make_model("nn", 4), PlainNN)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("forest", 4)


class TestMinSafeParallelism:
    class _Step:
        """Safe iff p ≥ boundary."""

        is_monotone = True

        def __init__(self, boundary):
            self.boundary = boundary

        def predict_proba(self, h, p):
            return np.where(np.asarray(p) >= self.boundary, 0.0, 1.0)

    def test_binary_search_finds_boundary(self):
        m = self._Step(boundary=0.37)
        p = min_safe_parallelism(m, np.zeros(3), 100, lambda q: q / 100.0)
        assert p == 37

    def test_all_unsafe_returns_pmax(self):
        m = self._Step(boundary=2.0)
        assert min_safe_parallelism(m, np.zeros(3), 50, lambda q: q / 100.0) == 50

    def test_all_safe_returns_one(self):
        m = self._Step(boundary=0.0)
        assert min_safe_parallelism(m, np.zeros(3), 50, lambda q: q / 100.0) == 1

    def test_linear_scan_for_nonmonotone(self):
        class Bumpy:
            is_monotone = False

            def predict_proba(self, h, p):
                q = np.asarray(p)
                return np.where((q > 0.05) & (q < 0.2), 1.0, 0.0)

        p = min_safe_parallelism(Bumpy(), np.zeros(2), 100, lambda q: q / 100.0)
        assert p == 1  # scan stops at the first hole — the NN failure mode


# -- the vectorised GBDT against the serial reference -------------------------
def _tied_data(seed, n=300, labels="boundary"):
    """Embeddings full of exact ties: duplicated and affine-correlated
    columns, columns with few distinct values, a constant column, and a
    parallelism feature on a coarse grid. ``bump`` labels reward
    non-monotone splits, so the monotone check and leaf bounds bind."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, 3))
    h = np.column_stack(
        [
            base[:, 0],
            base[:, 0],
            2.0 * base[:, 0] + 1.0,
            np.round(base[:, 1], 1),
            rng.integers(0, 3, n).astype(float),
            np.full(n, 0.5),
            base[:, 2],
            -0.5 * base[:, 2],
        ]
    )
    p = rng.integers(1, 41, n) / 40.0
    if labels == "bump":
        y = ((p > 0.3) & (p < 0.6)).astype(int)
    else:
        y = (p < 0.3 + 0.2 * (base[:, 0] > 0)).astype(int)
    y ^= (rng.uniform(size=n) < 0.1).astype(int)
    w = rng.choice([1.0, 5.0], size=n)
    return h, p, y, w


class TestGBDTMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("labels", ["boundary", "bump"])
    def test_identical_trees(self, seed, labels):
        h, p, y, w = _tied_data(seed, labels=labels)
        new = MonotoneGBDT(seed=seed, n_rounds=12).fit(h, p, y, sample_weight=w)
        ref = ReferenceGBDT(seed=seed, n_rounds=12).fit(h, p, y, sample_weight=w)
        assert len(new.trees) == len(ref.trees)
        for flat, node in zip(new.trees, ref.trees):
            assert flat_preorder(flat) == list(node.preorder())
        assert np.array_equal(new.decision(h, p), ref.decision(h, p))

    def test_candidates_match_np_quantile(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            rows = []
            for kind in rng.integers(0, 4, size=int(rng.integers(1, 6))):
                if kind == 0:
                    rows.append(rng.normal(size=n))
                elif kind == 1:
                    rows.append(rng.integers(0, int(rng.integers(1, 12)), n).astype(float))
                elif kind == 2:
                    rows.append(np.round(rng.normal(size=n), 1))
                else:
                    rows.append(np.full(n, rng.normal()))
            xt = np.vstack(rows)
            cands, valid, below = split_candidates(np.sort(xt, axis=1), np.array([0]))
            for row, c, v, b in zip(xt, cands[:, 0], valid[:, 0], below[:, 0]):
                xs = np.unique(row)
                mids = (xs[:-1] + xs[1:]) / 2.0
                want = np.quantile(mids, _QUANTILES) if len(mids) > 8 else mids
                assert np.array_equal(c[v], want)
                assert np.array_equal(b[v], (row[:, None] <= want).sum(axis=0))


def _fitted(kind, seed=0):
    h, p, y, _ = _boundary_data(n=300, d=5, seed=seed)
    model = {
        "svm": lambda: MonotoneSVM(5, seed=seed, epochs=20),
        "xgboost": lambda: MonotoneGBDT(seed=seed, n_rounds=15),
        "nn": lambda: PlainNN(5, seed=seed, epochs=100),
    }[kind]()
    return model.fit(h, p, y), h


class TestBatchedSearch:
    @pytest.mark.parametrize("kind", ["svm", "xgboost", "nn"])
    def test_matches_serial_search(self, kind):
        """The p-grid answer equals the one-row binary search (monotone
        models) or linear scan (the NN) at both tuner thresholds."""
        model, h = _fitted(kind)
        for p_max in (12, 100):
            scale = lambda q: np.asarray(q, dtype=float) / p_max  # noqa: E731
            for row in h[:25]:
                for thr in (0.5, 0.35):
                    want = reference_search(model, row, p_max, scale, thr)
                    assert min_safe_parallelism(model, row, p_max, scale, threshold=thr) == want
                both = min_safe_parallelism(model, row, p_max, scale, threshold=(0.5, 0.35))
                assert both == [
                    min_safe_parallelism(model, row, p_max, scale, threshold=0.5),
                    min_safe_parallelism(model, row, p_max, scale, threshold=0.35),
                ]

    @pytest.mark.parametrize("labels", ["boundary", "bump"])
    def test_gbdt_nonincreasing_over_p_grid(self, labels):
        """Every tree's output is non-increasing in p under the leaf
        bounds, and so is the summed, squashed ensemble, for any h."""
        h, p, y, w = _tied_data(3, labels=labels)
        model = MonotoneGBDT(seed=1, n_rounds=20).fit(h, p, y, sample_weight=w)
        grid = np.arange(1, 101) / 100.0
        for row in np.random.default_rng(0).normal(size=(40, h.shape[1])):
            assert np.all(np.diff(model.predict_proba(row, grid)) <= 0)
