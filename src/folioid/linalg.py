"""Subspace arithmetic on top of SVD.

All rank decisions use one policy: singular values below ``tol * scale``
are treated as zero.  The scale is the matrix's largest singular value,
except in an intersection, whose matrix is a projected product that is all
rounding noise when the intersection is everything: there it is the largest
column norm of the factor before projection.
Bases are returned as matrices whose *columns* are orthonormal; the empty
subspace is an ``(n, 0)`` matrix.
"""

from __future__ import annotations

import numpy as np


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return a


def orth_basis(a, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``."""
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0))
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank]


def null_basis(a, tol: float = 1e-6, scale_of=None) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``; given ``scale_of``, the
    rank scale is its largest column norm (an intersection's unprojected factor)."""
    a = as_matrix(a)
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n)
    scale = s[0] if scale_of is None else np.linalg.norm(scale_of, axis=0).max(initial=0.0)
    rank = int(np.sum(s > tol * scale))
    return vh[rank:].T


def numerical_rank(a, tol: float = 1e-6) -> int:
    a = as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def intersect_subspaces(a, b, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal coefficients ``c`` with ``a c`` in ``span(b)``.

    For ``b`` orthonormal and ``a`` of full column rank, ``a c`` spans
    ``span(a) & span(b)``: the principal vectors at angle zero, the null
    space of ``(I - b b^T) a`` (Bjorck & Golub 1973), found by one SVD
    ranked against the largest column norm of ``a``.
    """
    a, b = as_matrix(a), as_matrix(b)
    return null_basis(a - b @ (b.T @ a), tol, scale_of=a)


def span_residual(v, basis) -> float:
    """Sine of the angle between ``v`` and ``span(basis)``; 0 for tiny v."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv < 1e-13:
        return 0.0
    basis = as_matrix(basis)
    if basis.shape[1] == 0:
        return 1.0
    rem = v - basis @ (basis.T @ v)
    return float(np.linalg.norm(rem) / nv)


def max_span_residual(vectors, basis) -> float:
    """Largest ``span_residual`` over the columns of ``vectors``."""
    vectors = as_matrix(vectors)
    if vectors.shape[1] == 0:
        return 0.0
    return max(span_residual(vectors[:, j], basis) for j in range(vectors.shape[1]))


def subspace_max_angle(b1, b2) -> float:
    """Largest principal angle (radians) between two subspaces.

    ``b1`` and ``b2`` are orthonormal bases (columns).  The sine of the
    largest angle is the top singular value of the part of b2 outside
    span(b1), ``b2 - b1 b1^T b2``, which stays accurate for small angles.
    Returns pi/2 when the dimensions differ, since the subspaces cannot
    then be equal.
    """
    b1 = as_matrix(b1)
    b2 = as_matrix(b2)
    if b1.shape[1] != b2.shape[1]:
        return float(np.pi / 2)
    if b1.shape[1] == 0:
        return 0.0
    outside = b2 - b1 @ (b1.T @ b2)
    top = np.linalg.svd(outside, compute_uv=False)[0]
    return float(np.arcsin(min(top, 1.0)))


def solve_min_norm(a, b) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of ``a x = b`` and its residual."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=float)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.linalg.norm(a @ x - b))
    return x, resid
