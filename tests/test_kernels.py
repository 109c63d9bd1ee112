"""The stacked kernels behind the public chain.

The backtest engine runs each step of the rebalance chain on a stack of
windows; the public functions run the same kernels on a batch of one. These
properties are what makes the engine's weights bitwise equal to the public
chain's: a slice of a batch has the bits of its batch of one, and the
covariance kernel reads a strided column slice of the asset-major panel as
it reads a contiguous copy.
"""

import datetime
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equidrift import BacktestConfig, CovMatrix, DateRange, ReturnPanel, backtest
from equidrift.backtest import _covariance, estimate_covariance, estimation_window
from equidrift.errors import NotPositiveDefinite
from equidrift.factorization import (
    _cholesky,
    _factors,
    _positive_eig,
    _rotate,
    _sym_sqrt,
    _symmetric,
)
from equidrift.strategy import _fully_invested, _kappa, _scale_unit_solution, _solve_unit_exposures


class Windows:
    """``batch`` trailing windows of ``window`` rows over one random panel of
    ``n`` assets, one row apart; with ``excluded``, a 5-row exclusion window
    cuts some of them short."""

    def __init__(self, n: int, batch: int, extra: int, excluded: bool, seed: int):
        rng = np.random.default_rng(seed)
        self.window = n + 6 + extra
        days = self.window + batch
        start = datetime.date(2001, 1, 1)
        dates = [int((start + datetime.timedelta(i)).strftime("%Y%m%d")) for i in range(days)]
        returns = 0.01 * rng.standard_normal((days, n)) + 0.001 * rng.standard_normal(n)
        self.panel = ReturnPanel(
            dates, tuple(f"A{i}" for i in range(n)), returns, np.zeros((days, n), dtype=bool)
        )
        exclusions = ()
        if excluded:
            a = int(rng.integers(0, days - 5))
            exclusions = (DateRange(dates[a], dates[a + 4]),)
        self.config = BacktestConfig(
            window_days=self.window, reestimate_every=1, exclusion_windows=exclusions
        )
        self.rows = range(self.window, days)
        keep = backtest._outside_exclusions(self.panel.dates, self.config)
        self.kept = self.panel.returns.T.compress(keep, axis=1)
        pos = np.concatenate(([0], np.cumsum(keep)))
        self.spans = [(int(pos[t - self.window]), int(pos[t])) for t in self.rows]
        self.exposure = float(rng.choice([1.0, 0.6, -0.8]))
        self.target = rng.standard_normal((n, n))

    def covariances(self) -> np.ndarray:
        return np.stack([_covariance(self.kept[:, a:b]) for a, b in self.spans])


def windows(max_n: int = 48):
    return st.builds(
        Windows,
        n=st.integers(1, max_n),
        batch=st.sampled_from([1, 2, 37]),
        extra=st.integers(0, 40),
        excluded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )


def same(batched, one, k: int) -> bool:
    """Slice k of a batched result has the bits of the batch-of-one result."""
    return np.asarray(batched)[k].tobytes() == np.asarray(one)[0].tobytes()


class TestCovarianceKernel:
    @settings(max_examples=60)
    @given(w=windows())
    def test_strided_slice_reads_as_contiguous_copy(self, w):
        for (a, b), t in zip(w.spans, w.rows):
            view = w.kept[:, a:b]
            got = _covariance(view)
            assert got.tobytes() == _covariance(np.ascontiguousarray(view)).tobytes()
            public = estimate_covariance(estimation_window(w.panel, t, w.config))
            assert got.tobytes() == public.entries.tobytes()

    @settings(max_examples=60)
    @given(w=windows())
    def test_output_is_symmetric_bit_for_bit(self, w):
        # so the engine skips the symmetry check CovMatrix makes on outside input
        c = w.covariances()
        assert c.tobytes() == np.ascontiguousarray(c.transpose(0, 2, 1)).tobytes()


def mixed_slice(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One symmetric n x n slice: positive-definite, rank-deficient with zero
    rows (what a constant asset gives), all zero, or with an eigenvalue of -1
    that no small diagonal repair lifts."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "unrepairable":
        if n == 1:
            return -np.ones((1, 1))
        c = np.eye(n)
        c[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        return c
    x = 0.01 * rng.standard_normal((n, n + 3))
    x[n if kind == "pd" else int(rng.integers(0, n)) :] = 0.0
    c = x @ x.T
    return 0.5 * (c + c.T)


class TestPositiveEigKernel:
    """The positive-definiteness kernel that :class:`CovMatrix` and the
    backtest engine share, on stacks that mix every kind of slice."""

    @settings(max_examples=80)
    @given(
        n=st.integers(1, 12),
        kinds=st.lists(
            st.sampled_from(["pd", "deficient", "zero", "unrepairable"]), min_size=1, max_size=9
        ),
        shrinkage=st.sampled_from([None, 1e-4, 1e-6, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slices_match_batches_of_one_and_cov_matrix(self, n, kinds, shrinkage, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([mixed_slice(kind, n, rng) for kind in kinds])
        before = stack.tobytes()
        c, w, v = _positive_eig(stack, shrinkage)
        assert stack.tobytes() == before
        unrepaired = np.linalg.eigh(stack)[0][:, 0]
        for k, kind in enumerate(kinds):
            alone = _positive_eig(stack[k : k + 1], shrinkage)
            assert all(same(b, o, k) for b, o in zip((c, w, v), alone))
            want = stack[k]
            if shrinkage is not None and unrepaired[k] <= 0.0:  # the repair rule
                mean_var = float(np.diag(want).mean())
                want = want + (shrinkage * mean_var if mean_var > 0.0 else shrinkage) * np.eye(n)
            assert c[k].tobytes() == want.tobytes()
            if kind == "unrepairable":
                assert w[k, 0] <= 0.0
            if w[k, 0] > 0.0:
                cov = CovMatrix(stack[k], shrinkage)
                assert cov.entries.tobytes() == c[k].tobytes()
                assert cov._eig[0].tobytes() == w[k].tobytes()
                assert cov._eig[1].tobytes() == v[k].tobytes()
            else:
                message = "non-positive eigenvalue" if shrinkage is None else "even after diagonal"
                with pytest.raises(NotPositiveDefinite, match=message):
                    CovMatrix(stack[k], shrinkage)


class TestBatchedKernels:
    """Each kernel, batched, against itself on each slice alone."""

    @settings(max_examples=60)
    @given(w=windows())
    def test_slices_match_batches_of_one(self, w):
        c = w.covariances()
        eig = np.linalg.eigh(c)
        assume(np.all(eig[0][:, 0] > 0.0))
        try:
            lower, pivots, floor = _cholesky(c)
        except np.linalg.LinAlgError:
            assume(False)
        sym = _symmetric(c)
        root = _sym_sqrt(*eig)
        rotated, q = _rotate(lower, w.target)
        factors = {
            m: _factors(c, *eig, m, w.target) for m in ("sym_sqrt", "cholesky", "rotate")
        }
        a = rotated.transpose(0, 2, 1)
        x = _solve_unit_exposures(a)
        kappa, degenerate = _kappa(x, w.exposure)
        pi, residual = _scale_unit_solution(a, x, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, ok, negative = _fully_invested(rotated, w.exposure)
        for k in range(len(c)):
            one = c[k : k + 1]
            assert same(sym, _symmetric(one), k)
            eig1 = np.linalg.eigh(one)
            assert all(same(b, o, k) for b, o in zip(eig, eig1))
            assert all(same(b, o, k) for b, o in zip((lower, pivots, floor), _cholesky(one)))
            assert same(root, _sym_sqrt(*eig1), k)
            assert all(same(b, o, k) for b, o in zip((rotated, q), _rotate(lower[k : k + 1], w.target)))
            for m, batched in factors.items():
                alone = _factors(one, *eig1, m, w.target)
                assert all(same(b, o, k) for b, o in zip(batched, alone))
            a1 = a[k : k + 1]
            x1 = _solve_unit_exposures(a1)
            assert same(x, x1, k)
            kappa1, degenerate1 = _kappa(x1, w.exposure)
            assert same(kappa, kappa1, k) and same(degenerate, degenerate1, k)
            assert all(same(b, o, k) for b, o in zip((pi, residual), _scale_unit_solution(a1, x1, kappa1)))
            alone = _fully_invested(rotated[k : k + 1], w.exposure)
            assert all(same(b, o, k) for b, o in zip((weights, ok, negative), alone))


class TestEngineMatchesPublicChain:
    @settings(max_examples=60)
    @given(
        w=windows(max_n=12),
        method=st.sampled_from(["sym_sqrt", "cholesky", "rotate"]),
        block_bytes=st.sampled_from([8, 2048, 128 * 1024]),
    )
    def test_stacked_block_is_bitwise_the_public_chain(self, w, method, block_bytes):
        cfg = BacktestConfig(
            window_days=w.config.window_days,
            reestimate_every=1,
            factorization=method,
            exposure=w.exposure,
            exclusion_windows=w.config.exclusion_windows,
            rotation_target=w.target if method == "rotate" else None,
        )
        stack = backtest._STACK_BYTES
        backtest._STACK_BYTES = block_bytes
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a negative kappa only warns
                parts = backtest._stacked_parts(w.panel, w.rows, cfg)
                got = backtest._chained(w.panel, parts, cfg)
                want = list(backtest._rebalance_weights(w.panel, w.rows, cfg))
        finally:
            backtest._STACK_BYTES = stack
        assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()

    def test_failed_stacked_lapack_call_falls_back_to_the_public_chain(self, monkeypatch):
        w = Windows(n=3, batch=37, extra=5, excluded=False, seed=1)
        cfg = BacktestConfig(
            window_days=w.window, reestimate_every=1, factorization="cholesky", exclusion_windows=()
        )
        want = list(backtest._rebalance_weights(w.panel, w.rows, cfg))
        real = np.linalg.cholesky
        alone = []

        def fails_when_stacked(a):
            if len(a) > 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            alone.append(1)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_when_stacked)
        parts = backtest._stacked_parts(w.panel, w.rows, cfg)
        got = backtest._chained(w.panel, parts, cfg)
        assert len(alone) == len(w.rows) == 37
        assert got.tobytes() == np.array(want).tobytes()
