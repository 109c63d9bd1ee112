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


class CovMatrix:
    """Symmetric positive-definite covariance of per-period returns.

    Positive-definiteness is enforced at construction.  When ``shrinkage``
    is given, a failing matrix is repaired by adding
    ``shrinkage * mean(diag(C))`` to the diagonal before re-checking (plain
    ``shrinkage`` when the diagonal is identically zero, so an all-zero
    sample covariance still gets a usable repair).

    The eigendecomposition behind the positive-definiteness verdict is kept
    for :func:`sym_sqrt`, so a matrix is decomposed once.
    """

    __slots__ = ("entries", "dim", "_eig")

    def __init__(self, entries, shrinkage: float | None = None):
        a = _as_square(entries, "covariance matrix")
        scale = np.abs(a).max()
        if scale > 0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("covariance matrix is not symmetric within tolerance")
        w, v = np.linalg.eigh(a)
        if w[0] <= 0.0:
            if shrinkage is None:
                raise NotPositiveDefinite(
                    "covariance matrix has a non-positive eigenvalue"
                )
            mean_var = float(np.diag(a).mean())
            bump = shrinkage * mean_var if mean_var > 0.0 else shrinkage
            repaired = a + bump * np.eye(a.shape[0])
            w, v = np.linalg.eigh(repaired)
            if w[0] <= 0.0:
                raise NotPositiveDefinite(
                    "covariance matrix is not positive-definite even after "
                    f"diagonal shrinkage (delta={shrinkage})"
                )
            repaired.setflags(write=False)
            a = repaired
        w.setflags(write=False)
        v.setflags(write=False)
        self.entries = a
        self.dim = a.shape[0]
        self._eig = (w, v)

    def __repr__(self):
        return f"CovMatrix(dim={self.dim})"


def _require_nonsingular(svals: np.ndarray) -> None:
    """Reject a factor with these singular values as singular."""
    if svals.min() <= svals.size * 1e-13 * svals.max():
        raise SingularMatrix("volatility matrix is singular within tolerance")


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
        _require_nonsingular(np.linalg.svd(a, compute_uv=False))
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
    a = cov.entries
    pivot_floor = cov.dim * 1e-14 * np.abs(a).max()
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"covariance matrix is not positive-definite to working precision: {exc}"
        ) from exc
    pivots = np.diag(lower) ** 2
    low = np.flatnonzero(pivots <= pivot_floor)
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"elimination pivot {pivots[j]:.3e} at column {j} is below the "
            f"positive-definiteness floor {pivot_floor:.3e}"
        )
    _require_nonsingular(np.sqrt(cov._eig[0]))
    return VolMatrix._built(lower, "cholesky")


def sym_sqrt(cov: CovMatrix) -> VolMatrix:
    """Symmetric factor S with S S = C, via orthogonal eigendecomposition.

    Reuses the decomposition :class:`CovMatrix` made, whose eigenvalues are
    all positive. A nearly singular factor raises SingularMatrix.
    """
    w, v = cov._eig
    root = np.sqrt(w)
    _require_nonsingular(root)
    s = (v * root) @ v.T
    return VolMatrix._built(0.5 * (s + s.T), "sym_sqrt")


def procrustes_rotate(factor: VolMatrix, target: TargetMatrix) -> tuple[VolMatrix, RotationMatrix]:
    """Rotate a factor toward a target matrix in the least-squares sense.

    Finds the orthogonal Q minimizing ``||L Q - T||_F`` (solution
    ``Q = U W'`` from the singular decomposition ``L'T = U S W'``) and
    returns ``(L Q, Q)``.  Reflections are admitted alongside rotations,
    since any orthogonal Q preserves ``(LQ)(LQ)' = L L'``, and the singular
    values of L, so ``L Q`` is as far from singular as L.
    """
    if factor.dim != target.dim:
        raise DimensionMismatch(
            f"factor is {factor.dim}x{factor.dim} but target is {target.dim}x{target.dim}"
        )
    u, _, wt = np.linalg.svd(factor.entries.T @ target.entries)
    q = u @ wt
    return VolMatrix._built(factor.entries @ q, "rotated"), RotationMatrix._built(q)


def factor_covariance(
    cov: CovMatrix, method: str, target: TargetMatrix | None = None
) -> VolMatrix:
    """Factor a covariance matrix by one of :data:`FACTORIZATIONS`.

    'cholesky' and 'sym_sqrt' call the function of that name; 'rotate'
    rotates the Cholesky factor toward ``target`` with
    :func:`procrustes_rotate`.
    """
    if method == "cholesky":
        return cholesky(cov)
    if method == "sym_sqrt":
        return sym_sqrt(cov)
    if method == "rotate":
        if target is None:
            raise ValueError("factorization 'rotate' needs a target matrix")
        return procrustes_rotate(cholesky(cov), target)[0]
    raise ValueError(f"factorization must be one of {FACTORIZATIONS}, got {method!r}")


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

