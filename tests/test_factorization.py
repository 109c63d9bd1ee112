import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conditioned_cov, random_cov, random_spd
from equidrift import (
    CovMatrix,
    RotationMatrix,
    TargetMatrix,
    VolMatrix,
    cholesky,
    factor_covariance,
    procrustes_rotate,
    random_rotation,
    read_matrix_csv,
    recover_cholesky,
    sym_sqrt,
    write_matrix_csv,
)
from equidrift.errors import DimensionMismatch, NotPositiveDefinite, ParseError, SingularMatrix

TWO_ASSET = [[4.0, 2.0], [2.0, 5.0]]
# closed form for the symmetric root of TWO_ASSET: (C + 4I) / sqrt(17)
TWO_ASSET_SQRT = np.array([[8.0, 2.0], [2.0, 9.0]]) / math.sqrt(17.0)


class TestCovMatrix:
    def test_accepts_spd(self):
        cov = CovMatrix(TWO_ASSET)
        assert cov.dim == 2
        assert not cov.entries.flags.writeable

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovMatrix([[1.0, 0.2], [0.3, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            CovMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefinite):
            CovMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_shrinkage_repairs_semidefinite(self):
        cov = CovMatrix([[1.0, 1.0], [1.0, 1.0]], shrinkage=1e-6)
        assert np.linalg.eigvalsh(cov.entries).min() > 0.0
        # off-diagonals untouched, diagonal bumped by delta * mean(diag)
        assert cov.entries[0, 1] == 1.0
        assert cov.entries[0, 0] == pytest.approx(1.0 + 1e-6, rel=1e-12)

    @pytest.mark.parametrize("shrinkage", [math.inf, math.nan, 0.0, -1e-6])
    def test_shrinkage_must_be_finite_and_positive(self, shrinkage):
        # checked whether or not the matrix needs the repair
        for entries in ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]):
            with pytest.raises(ValueError, match="shrinkage must be finite and positive"):
                CovMatrix(entries, shrinkage=shrinkage)

    def test_shrinkage_repairs_all_zero(self):
        cov = CovMatrix(np.zeros((3, 3)), shrinkage=1e-6)
        np.testing.assert_allclose(cov.entries, 1e-6 * np.eye(3), rtol=0, atol=0)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            CovMatrix([[1.0, 0.0]])
        with pytest.raises(ValueError):
            CovMatrix([[np.nan, 0.0], [0.0, 1.0]])


class TestVolMatrix:
    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            VolMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_cov_product(self):
        vol = VolMatrix([[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(vol.cov(), np.array(TWO_ASSET))

    def test_public_constructor_takes_entries_only(self):
        vol = VolMatrix(np.eye(2))
        assert not vol.entries.flags.writeable
        assert repr(vol) == "VolMatrix(dim=2)"
        with pytest.raises(TypeError):
            VolMatrix(np.eye(2), provenance="cholesky")
        with pytest.raises(TypeError):
            VolMatrix._built(np.eye(2), "cholesky")


class TestCholesky:
    def test_reference_two_asset(self):
        vol = cholesky(CovMatrix(TWO_ASSET))
        np.testing.assert_array_equal(vol.entries, [[2.0, 0.0], [1.0, 2.0]])

    def test_identity(self):
        vol = cholesky(CovMatrix(np.eye(3)))
        np.testing.assert_array_equal(vol.entries, np.eye(3))

    def test_reproduces_source(self):
        rng = np.random.default_rng(101)
        c = random_spd(rng, 5)
        vol = cholesky(CovMatrix(c))
        resid = np.linalg.norm(vol.cov() - c) / np.linalg.norm(c)
        assert resid <= 1e-12
        assert np.all(np.diag(vol.entries) > 0.0)
        assert np.all(np.triu(vol.entries, 1) == 0.0)

    def test_matches_library_cholesky(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            c = random_spd(rng, int(rng.integers(1, 9)))
            ours = cholesky(CovMatrix(c)).entries
            ref = np.linalg.cholesky(c)
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_pivot_floor_raises(self):
        # eigenvalues are (barely) positive but the second elimination pivot
        # lands below the dim * 1e-14 * max|C| floor
        c = np.array([[1.0, 1.0], [1.0, 1.0 + 1.2e-14]])
        cov = CovMatrix(c)
        with pytest.raises(NotPositiveDefinite):
            cholesky(cov)

    def test_pivot_floor_names_first_low_column(self):
        c = np.eye(3)
        c[1:, 1:] = [[1.0, 1.0], [1.0, 1.0 + 1.2e-14]]
        with pytest.raises(NotPositiveDefinite, match="at column 2 "):
            cholesky(CovMatrix(c))

    def test_lapack_failure_is_not_positive_definite(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        cov = CovMatrix(TWO_ASSET)
        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(NotPositiveDefinite, match="working precision") as exc_info:
            cholesky(cov)
        assert isinstance(exc_info.value.__cause__, np.linalg.LinAlgError)


class TestSymSqrt:
    def test_equals_root_from_own_decomposition(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            c = random_spd(rng, int(rng.integers(1, 9)))
            w, v = np.linalg.eigh(c)
            want = (v * np.sqrt(w)) @ v.T
            want = 0.5 * (want + want.T)
            assert np.array_equal(sym_sqrt(CovMatrix(c)).entries, want)

    def test_root_of_repaired_matrix(self):
        cov = CovMatrix(np.zeros((3, 3)), shrinkage=1e-6)
        s = sym_sqrt(cov).entries
        np.testing.assert_allclose(s @ s, cov.entries, rtol=1e-12, atol=0)

    def test_singular_root_rejected(self):
        # positive-definite, but sqrt(1e-28) = 1e-14 is below the
        # singular-value floor 2 * 1e-13 * sqrt(1)
        with pytest.raises(SingularMatrix):
            sym_sqrt(CovMatrix(np.diag([1e-28, 1.0])))

    def test_reference_two_asset(self):
        vol = sym_sqrt(CovMatrix(TWO_ASSET))
        np.testing.assert_allclose(vol.entries, TWO_ASSET_SQRT, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            vol.entries, [[1.940, 0.485], [0.485, 2.183]], rtol=0, atol=5e-4
        )

    def test_diagonal(self):
        vol = sym_sqrt(CovMatrix(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(vol.entries, np.diag([2.0, 3.0]), rtol=0, atol=1e-15)

    def test_identity(self):
        vol = sym_sqrt(CovMatrix(np.eye(4)))
        np.testing.assert_allclose(vol.entries, np.eye(4), rtol=0, atol=1e-15)

    def test_symmetric_and_squares_back(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            c = random_spd(rng, int(rng.integers(2, 10)))
            s = sym_sqrt(CovMatrix(c)).entries
            assert np.abs(s - s.T).max() <= 1e-12 * np.abs(s).max()
            assert np.linalg.norm(s @ s - c) <= 1e-9 * np.linalg.norm(c)
            assert np.linalg.eigvalsh(s).min() > 0.0


class TestProcrustes:
    def test_self_target_is_identity_rotation(self):
        vol = cholesky(CovMatrix(TWO_ASSET))
        rotated, q = procrustes_rotate(vol, TargetMatrix(vol.entries))
        np.testing.assert_allclose(q.entries, np.eye(2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rotated.entries, vol.entries, rtol=0, atol=1e-12)

    def test_rotation_reaches_other_factor_of_same_cov(self):
        cov = CovMatrix(TWO_ASSET)
        lower = cholesky(cov)
        root = sym_sqrt(cov)
        rotated, _ = procrustes_rotate(lower, TargetMatrix(root.entries))
        assert np.linalg.norm(rotated.entries - root.entries) <= 1e-9

    def test_matches_angle_grid_oracle(self):
        lower = cholesky(CovMatrix(TWO_ASSET))
        target = np.ones((2, 2))
        rotated, _ = procrustes_rotate(lower, TargetMatrix(target))
        ours = np.linalg.norm(rotated.entries - target)

        theta = np.arange(0.0, 2.0 * np.pi, 1e-4)
        c, s = np.cos(theta), np.sin(theta)
        el = lower.entries
        # rotations [[c,-s],[s,c]] and reflections [[c,s],[s,-c]]
        rot = (
            (el[0, 0] * c + el[0, 1] * s - target[0, 0]) ** 2
            + (-el[0, 0] * s + el[0, 1] * c - target[0, 1]) ** 2
            + (el[1, 0] * c + el[1, 1] * s - target[1, 0]) ** 2
            + (-el[1, 0] * s + el[1, 1] * c - target[1, 1]) ** 2
        )
        refl = (
            (el[0, 0] * c + el[0, 1] * s - target[0, 0]) ** 2
            + (el[0, 0] * s - el[0, 1] * c - target[0, 1]) ** 2
            + (el[1, 0] * c + el[1, 1] * s - target[1, 0]) ** 2
            + (el[1, 0] * s - el[1, 1] * c - target[1, 1]) ** 2
        )
        grid_best = math.sqrt(min(rot.min(), refl.min()))
        assert ours <= grid_best + 1e-6

    def test_never_worse_than_no_rotation(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            vol = cholesky(random_cov(rng, n))
            target = rng.standard_normal((n, n))
            rotated, _ = procrustes_rotate(vol, TargetMatrix(target))
            assert (
                np.linalg.norm(rotated.entries - target)
                <= np.linalg.norm(vol.entries - target) + 1e-12
            )

    def test_objective_invariant_under_rotated_target(self):
        rng = np.random.default_rng(105)
        vol = cholesky(random_cov(rng, 2))
        target = rng.standard_normal((2, 2))
        rot = random_rotation(2, seed=42)
        v1, _ = procrustes_rotate(vol, TargetMatrix(target))
        v2, _ = procrustes_rotate(vol, TargetMatrix(target @ rot.entries.T))
        obj1 = np.linalg.norm(v1.entries - target)
        obj2 = np.linalg.norm(v2.entries - target @ rot.entries.T)
        assert abs(obj1 - obj2) <= 1e-10

    def test_preserves_covariance(self):
        rng = np.random.default_rng(106)
        c = random_spd(rng, 6)
        vol = cholesky(CovMatrix(c))
        rotated, _ = procrustes_rotate(vol, TargetMatrix(rng.standard_normal((6, 6))))
        assert np.linalg.norm(rotated.cov() - c) <= 1e-9 * np.linalg.norm(c)

    def test_dimension_mismatch(self):
        vol = cholesky(CovMatrix(TWO_ASSET))
        with pytest.raises(DimensionMismatch):
            procrustes_rotate(vol, TargetMatrix(np.eye(3)))


class TestRecoverCholesky:
    def test_triangular_input_is_fixed_point(self):
        vol = VolMatrix([[2.0, 0.0], [1.0, 2.0]])
        out = recover_cholesky(vol)
        np.testing.assert_allclose(out.entries, vol.entries, rtol=0, atol=1e-12)

    def test_recovers_from_symmetric_root(self):
        out = recover_cholesky(sym_sqrt(CovMatrix(TWO_ASSET)))
        np.testing.assert_allclose(
            out.entries, [[2.0, 0.0], [1.0, 2.0]], rtol=0, atol=1e-9
        )

    def test_recovers_under_random_rotations(self):
        rng = np.random.default_rng(107)
        cov = random_cov(rng, 4)
        lower = cholesky(cov)
        for seed in range(20):
            q = random_rotation(4, seed=seed)
            mixed = VolMatrix(lower.entries @ q.entries)
            out = recover_cholesky(mixed)
            assert np.linalg.norm(out.entries - lower.entries) <= 1e-9

    def test_positive_diagonal_convention(self):
        rng = np.random.default_rng(108)
        vol = VolMatrix(rng.standard_normal((5, 5)) + 3 * np.eye(5))
        out = recover_cholesky(vol)
        assert np.all(np.diag(out.entries) > 0.0)
        assert np.all(np.triu(out.entries, 1) == 0.0)

    def test_equals_cholesky_of_product(self):
        rng = np.random.default_rng(109)
        vol = VolMatrix(rng.standard_normal((4, 4)) + 2 * np.eye(4))
        out = recover_cholesky(vol)
        direct = cholesky(CovMatrix(0.5 * (vol.cov() + vol.cov().T)))
        assert np.linalg.norm(out.entries - direct.entries) <= 1e-9


class TestRandomRotation:
    def test_one_dimensional(self):
        q = random_rotation(1, seed=0).entries
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-15

    def test_deterministic(self):
        a = random_rotation(4, seed=7).entries
        b = random_rotation(4, seed=7).entries
        np.testing.assert_array_equal(a, b)

    def test_orthogonal(self):
        q = random_rotation(4, seed=7).entries
        assert np.linalg.norm(q @ q.T - np.eye(4)) <= 1e-10

    def test_covers_reflections(self):
        # dets should hit both signs across seeds (full orthogonal group)
        dets = {round(float(np.linalg.det(random_rotation(3, seed=s).entries))) for s in range(30)}
        assert dets == {-1, 1}


class TestRotationMatrix:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            RotationMatrix([[1.0, 0.5], [0.0, 1.0]])


covariances = st.builds(
    conditioned_cov,
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 11.0),
    scale=st.floats(1e-6, 1e2),
)
seeds = st.integers(0, 2**32 - 1)


def _round_trip(vol: VolMatrix, cov: CovMatrix) -> float:
    c = cov.entries
    return float(np.linalg.norm(vol.cov() - c) / np.linalg.norm(c))


def _assert_orthogonal(q: RotationMatrix) -> None:
    a = q.entries
    assert not a.flags.writeable
    assert np.linalg.norm(a @ a.T - np.eye(q.dim)) <= 1e-10
    assert abs(abs(np.linalg.det(a)) - 1.0) <= 1e-10


class TestFactorRoundTripProperties:
    """The factorizations build their results without re-checking them, so
    these properties are the contract: ``||sigma sigma' - C||_F / ||C||_F``
    at most 1e-9, and rotations orthogonal with ``|det| = 1`` within 1e-10."""

    @settings(max_examples=200)
    @given(cov=covariances)
    def test_cholesky(self, cov):
        vol = cholesky(cov)
        assert not vol.entries.flags.writeable
        assert _round_trip(vol, cov) <= 1e-9

    @settings(max_examples=200)
    @given(cov=covariances)
    def test_sym_sqrt(self, cov):
        vol = sym_sqrt(cov)
        assert not vol.entries.flags.writeable
        assert _round_trip(vol, cov) <= 1e-9

    @settings(max_examples=200)
    @given(cov=covariances, seed=seeds)
    def test_rotate_toward_random_target(self, cov, seed):
        target = TargetMatrix(np.random.default_rng(seed).standard_normal((cov.dim, cov.dim)))
        rotated, q = procrustes_rotate(cholesky(cov), target)
        assert not rotated.entries.flags.writeable
        assert _round_trip(rotated, cov) <= 1e-9
        _assert_orthogonal(q)
        assert np.array_equal(factor_covariance(cov, "rotate", target).entries, rotated.entries)

    @settings(max_examples=200)
    @given(cov=covariances, seed=seeds)
    def test_recover_cholesky_of_randomly_rotated_factor(self, cov, seed):
        q = random_rotation(cov.dim, seed)
        _assert_orthogonal(q)
        out = recover_cholesky(VolMatrix(cholesky(cov).entries @ q.entries))
        assert _round_trip(out, cov) <= 1e-9
        assert np.all(np.diag(out.entries) > 0.0)
        assert np.all(np.triu(out.entries, 1) == 0.0)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(110)
        a = rng.standard_normal((3, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, a)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, a)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="line 2: .*: 1 entries, not 2"):
            read_matrix_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "\n  \n"):
            path.write_text(text)
            with pytest.raises(ParseError, match="line 1: .*: empty matrix file"):
                read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1.0,0.0\n\n0.0,abc\n", 3, "could not convert string to float: 'abc'"),
            ("1.0,\n0.0,1.0\n", 1, "could not convert string to float: ''"),
            ("1.0,0.0\n0.0,nan\n", 2, "non-finite entry in '0.0,nan'"),
            ("-inf\n", 1, "non-finite entry in '-inf'"),
        ],
        ids=["unparseable", "empty-entry", "nan", "inf"],
    )
    def test_bad_entry_names_the_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}: .*bad.csv: {message}") as exc_info:
            read_matrix_csv(path)
        assert exc_info.value.line_number == line
