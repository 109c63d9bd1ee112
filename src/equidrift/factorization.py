"""Volatility-matrix construction from covariance matrices.

A covariance matrix C admits many factors sigma with sigma sigma' = C.  This
module provides the three constructions the toolkit uses: the lower-triangular
Cholesky factor, the symmetric matrix square root, and the least-squares
rotation of a factor toward an investor-chosen target matrix, together with
the validated matrix types they operate on.

All operations are pure functions; the matrix types are immutable. Their
public constructors check everything; the matrices this module builds skip
those checks through the private ``_built``. Every factor of C has the
singular values ``sqrt(eig(C))``, which :class:`CovMatrix` keeps, and a
rotation leaves them unchanged, so factorizations judge singularity without an SVD.

Each step runs on a private kernel that takes a stack of matrices (a
leading batch axis) and returns per-slice results and verdicts. The kernel
holds the step's checks and its one ``method`` dispatch; a public function is
that kernel on a batch of one, raising from its verdicts. The backtest
engine calls the same kernels with a batch of many, so its factors are
bitwise equal to the public ones.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

__all__ = [
    "CovMatrix",
    "VolMatrix",
    "TargetMatrix",
    "RotationMatrix",
    "FACTORIZATIONS",
    "cholesky",
    "sym_sqrt",
    "procrustes_rotate",
    "factor_covariance",
    "recover_cholesky",
    "random_rotation",
]

#: Relative tolerance for the symmetry check on covariance input.
SYMMETRY_RTOL = 1e-12

#: Methods :func:`factor_covariance` accepts.
FACTORIZATIONS = ("cholesky", "sym_sqrt", "rotate")


def _as_square(entries, name: str) -> np.ndarray:
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


def _check_shrinkage(shrinkage: float | None) -> None:
    """Reject a diagonal-shrinkage delta that is set but not finite and > 0."""
    if shrinkage is not None and not 0.0 < shrinkage < np.inf:
        raise ValueError(f"shrinkage must be finite and positive when set, got {shrinkage}")


class CovMatrix:
    """Symmetric positive-definite covariance of per-period returns.

    Positive-definiteness is enforced by :func:`_positive_eig`, the kernel the
    backtest engine runs on its stacks. ``shrinkage``, when given, must be
    finite and positive; a failing matrix is repaired by adding ``shrinkage *
    mean(diag(C))`` (plain ``shrinkage`` when that mean is not positive, as
    for an all-zero sample) to the diagonal, then re-checked.

    The eigendecomposition behind the positive-definiteness verdict is kept
    for :func:`factor_covariance`, so a matrix is decomposed once.
    """

    __slots__ = ("entries", "dim", "_eig")

    def __init__(self, entries, shrinkage: float | None = None):
        _check_shrinkage(shrinkage)
        a = _as_square(entries, "covariance matrix")
        if not _symmetric(a[None])[0]:
            raise ValueError("covariance matrix is not symmetric within tolerance")
        a, w, v = (x[0] for x in _positive_eig(a[None], shrinkage))
        if w[0] <= 0.0:
            if shrinkage is None:
                raise NotPositiveDefinite("covariance matrix has a non-positive eigenvalue")
            raise NotPositiveDefinite(
                "covariance matrix is not positive-definite even after "
                f"diagonal shrinkage (delta={shrinkage})"
            )
        for x in (a, w, v):
            x.setflags(write=False)
        self.entries, self.dim, self._eig = a, a.shape[0], (w, v)

    def __repr__(self):
        return f"CovMatrix(dim={self.dim})"


def _positive_eig(c: np.ndarray, shrinkage: float | None):
    """``(c, w, v)``: symmetric (B, n, n) and its eigenpairs, after the
    :class:`CovMatrix` repair of each slice with ``w[:, 0] <= 0`` when
    ``shrinkage`` is set. Raises LinAlgError if ``eigh`` fails."""
    w, v = np.linalg.eigh(c)
    bad = np.flatnonzero(w[:, 0] <= 0.0)
    if shrinkage is not None and bad.size:
        c, d = c.copy(), c[bad]
        mean_var = np.diagonal(d, axis1=1, axis2=2).mean(axis=1)
        bump = np.where(mean_var > 0.0, shrinkage * mean_var, shrinkage)
        c[bad] = d + bump[:, None, None] * np.eye(c.shape[1])
        w[bad], v[bad] = np.linalg.eigh(c[bad])
    return c, w, v


def _symmetric(a: np.ndarray) -> np.ndarray:
    """Per slice of a stack (B, n, n): symmetric within SYMMETRY_RTOL of its
    largest entry."""
    scale = np.abs(a).max(axis=(1, 2))
    skew = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2))
    return ~((scale > 0) & (skew > SYMMETRY_RTOL * scale))


def _singular(svals: np.ndarray) -> np.ndarray:
    """Per row of singular values (B, n): the factor is singular within
    tolerance."""
    return svals.min(axis=1) <= svals.shape[1] * 1e-13 * svals.max(axis=1)


def _cholesky(a: np.ndarray):
    """Lower Cholesky factors of a stack (B, n, n), their elimination pivots
    ``L[j, j]**2`` (B, n) and each slice's pivot floor ``n * 1e-14 * max|C|``.
    Raises LinAlgError if a slice is not positive-definite to working
    precision."""
    floor = a.shape[1] * 1e-14 * np.abs(a).max(axis=(1, 2))
    lower = np.linalg.cholesky(a)
    return lower, np.diagonal(lower, axis1=1, axis2=2) ** 2, floor


def _sym_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric roots ``V diag(sqrt(w)) V'`` of a stack of eigenpairs."""
    s = (v * np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1)
    return 0.5 * (s + s.transpose(0, 2, 1))


def _rotate(factors: np.ndarray, target: np.ndarray):
    """Least-squares rotations ``(F Q, Q)`` of a stack of factors toward one
    target (see :func:`procrustes_rotate`)."""
    u, _, wt = np.linalg.svd(factors.transpose(0, 2, 1) @ target)
    q = u @ wt
    return factors @ q, q


class VolMatrix:
    """Non-singular n x n factor sigma of a covariance matrix.

    ``VolMatrix(entries)`` takes a caller's matrix (a ``--vol`` file, a
    simulation's sigma): it checks shape, finiteness and, by SVD,
    non-singularity, and sets ``provenance`` to "user". This module's
    factorizations build factors with :meth:`_built` instead, which checks
    nothing and records the method as the provenance.
    """

    __slots__ = ("entries", "dim", "provenance")

    def __init__(self, entries):
        a = _as_square(entries, "volatility matrix")
        if _singular(np.linalg.svd(a[None], compute_uv=False))[0]:
            raise SingularMatrix("volatility matrix is singular within tolerance")
        self.entries, self.dim, self.provenance = a, a.shape[0], "user"

    @classmethod
    def _built(cls, a: np.ndarray, provenance: str) -> "VolMatrix":
        """A factor that the function building it has judged non-singular."""
        vol = cls.__new__(cls)
        a.setflags(write=False)
        vol.entries, vol.dim, vol.provenance = a, a.shape[0], provenance
        return vol

    def cov(self) -> np.ndarray:
        """Covariance matrix sigma sigma' implied by this factor."""
        return self.entries @ self.entries.T

    def __repr__(self):
        return f"VolMatrix(dim={self.dim}, provenance={self.provenance!r})"


class TargetMatrix:
    """Investor-specified target for the rotation fit.  Entries unconstrained."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        self.entries = _as_square(entries, "target matrix")
        self.dim = self.entries.shape[0]


class RotationMatrix:
    """Orthogonal n x n matrix; rotations and reflections both allowed."""

    __slots__ = ("entries", "dim")

    ORTHOGONALITY_TOL = 1e-10

    def __init__(self, entries):
        a = _as_square(entries, "rotation matrix")
        n = a.shape[0]
        if np.linalg.norm(a @ a.T - np.eye(n)) > self.ORTHOGONALITY_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        if abs(abs(np.linalg.det(a)) - 1.0) > self.ORTHOGONALITY_TOL:
            raise ValueError("matrix determinant is not +-1 within tolerance")
        self.entries, self.dim = a, n

    @classmethod
    def _built(cls, q: np.ndarray) -> "RotationMatrix":
        """An orthogonal factor of an SVD or QR, unchecked."""
        rot = cls.__new__(cls)
        q.setflags(write=False)
        rot.entries, rot.dim = q, q.shape[0]
        return rot

    def __repr__(self):
        return f"RotationMatrix(dim={self.dim})"


def cholesky(cov: CovMatrix) -> VolMatrix:
    """Lower-triangular factor L with L L' = C and strictly positive diagonal.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK's factorization fails, or if an elimination pivot
        ``L[j, j]**2`` falls at or below ``dim * 1e-14 * max|C|``; the
        message names the first such column.
    SingularMatrix
        If L's singular values, ``sqrt(eig(C))``, say it is singular.
    """
    return factor_covariance(cov, "cholesky")


def sym_sqrt(cov: CovMatrix) -> VolMatrix:
    """Symmetric factor S with S S = C, via orthogonal eigendecomposition.

    Reuses the decomposition :class:`CovMatrix` made, whose eigenvalues are
    all positive. A nearly singular factor raises SingularMatrix.
    """
    return factor_covariance(cov, "sym_sqrt")


def _require_target_dim(dim: int, target: TargetMatrix) -> None:
    """Raise DimensionMismatch unless ``target`` fits factors of size ``dim``."""
    if dim != target.dim:
        raise DimensionMismatch(f"factor is {dim}x{dim} but target is {target.dim}x{target.dim}")


def procrustes_rotate(factor: VolMatrix, target: TargetMatrix) -> tuple[VolMatrix, RotationMatrix]:
    """Rotate a factor toward a target matrix in the least-squares sense.

    Finds the orthogonal Q minimizing ``||L Q - T||_F`` (solution
    ``Q = U W'`` from the singular decomposition ``L'T = U S W'``) and
    returns ``(L Q, Q)``.  Reflections are admitted alongside rotations,
    since any orthogonal Q preserves ``(LQ)(LQ)' = L L'``, and the singular
    values of L, so ``L Q`` is as far from singular as L.
    """
    _require_target_dim(factor.dim, target)
    rotated, q = (x[0] for x in _rotate(factor.entries[None], target.entries))
    return VolMatrix._built(rotated, "rotated"), RotationMatrix._built(q)


def factor_covariance(
    cov: CovMatrix, method: str, target: TargetMatrix | None = None
) -> VolMatrix:
    """Factor a covariance matrix by one of :data:`FACTORIZATIONS`.

    'cholesky' and 'sym_sqrt' give the factors :func:`cholesky` and
    :func:`sym_sqrt` describe, and raise as they do; 'rotate' rotates the
    Cholesky factor toward ``target`` as :func:`procrustes_rotate` does,
    after checking ``target``'s size and before raising on the factor.
    """
    w, v = cov._eig
    try:
        factor, pivots, floor, singular = (
            x[0] for x in _factors(cov.entries[None], w[None], v[None], method, target)
        )
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"covariance matrix is not positive-definite to working precision: {exc}"
        ) from exc
    low = np.flatnonzero(pivots <= floor)
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"elimination pivot {pivots[j]:.3e} at column {j} is below the "
            f"positive-definiteness floor {floor:.3e}"
        )
    if singular:
        raise SingularMatrix("volatility matrix is singular within tolerance")
    return VolMatrix._built(factor, "rotated" if method == "rotate" else method)


def _factors(c: np.ndarray, w: np.ndarray, v: np.ndarray, method: str, target=None):
    """:func:`factor_covariance` over a stack of covariance matrices ``c``
    (B, n, n) with eigenpairs ``(w, v)``, each with ``w[:, 0] > 0``, and a
    rotation TargetMatrix ``target``.

    Returns the factors; the Cholesky elimination pivots ``L[j, j]**2``
    (B, n) and each slice's pivot floor (B,), which 'sym_sqrt' does not
    use (its pivots are (B, 0)); and whether each factor is singular within
    tolerance. Raises ValueError or DimensionMismatch on a bad ``method`` or
    ``target``, and LinAlgError if a Cholesky factorization fails.
    """
    if method not in FACTORIZATIONS:
        raise ValueError(f"factorization must be one of {FACTORIZATIONS}, got {method!r}")
    if method == "rotate":
        if target is None:
            raise ValueError("factorization 'rotate' needs a target matrix")
        _require_target_dim(c.shape[1], target)
    singular = _singular(np.sqrt(w))
    if method == "sym_sqrt":
        return _sym_sqrt(w, v), np.empty((len(w), 0)), np.zeros(len(w)), singular
    lower, pivots, floor = _cholesky(c)
    if method == "rotate":
        lower = _rotate(lower, target.entries)[0]
    return lower, pivots, floor, singular


def recover_cholesky(vol: VolMatrix) -> VolMatrix:
    """Recover the positive-diagonal Cholesky factor underlying any factor.

    Writes ``V = L Q`` with L lower triangular and Q orthogonal (QR of V'),
    resolving the sign ambiguity so that diag(L) > 0.  The result equals
    ``cholesky(V V')`` and has the singular values of V.
    """
    r = np.linalg.qr(vol.entries.T, mode="r")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return VolMatrix._built((signs[:, None] * r).T, "cholesky")


def random_rotation(n: int, seed: int) -> RotationMatrix:
    """Draw an orthogonal matrix uniformly (Haar) over the orthogonal group.

    QR orthogonalization of a Gaussian matrix with the sign convention that
    makes the distribution Haar-uniform; deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return RotationMatrix._built(q * signs)

