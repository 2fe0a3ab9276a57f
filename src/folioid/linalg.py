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


def sup_norm(a) -> float:
    """Largest absolute entry of ``a``; 0.0 when ``a`` is empty, NaN if any entry is."""
    return float(np.abs(a).max(initial=0.0))


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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (k, n) array, each a dot product as ``np.linalg.norm`` takes it."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def span_residuals(vectors, basis) -> np.ndarray:
    """Sine of the angle between each column of ``vectors`` and ``span(basis)``.

    A column of norm below 1e-13 gives 0 and one with a NaN or infinite entry
    gives NaN, also against an empty basis.  The columns are projected in
    place by stacked matrix-vector products, never one matrix product, so
    each residual rounds exactly as that column alone would.
    """
    rows = as_matrix(vectors).T  # a view: a strided column must stay strided
    basis = as_matrix(basis)
    rem = rows - (basis @ (basis.T @ rows[:, :, None]))[..., 0]
    norms, out = _row_norms(rows), np.zeros(len(rows))
    keep = ~(norms < 1e-13)
    out[keep] = _row_norms(rem[keep]) / norms[keep]
    return out


def span_residual(v, basis) -> float:
    """``span_residuals`` of the single vector ``v``."""
    return float(span_residuals(v, basis)[0])


def max_span_residual(vectors, basis) -> float:
    """Largest ``span_residuals`` entry; 0.0 when ``vectors`` has no columns."""
    return sup_norm(span_residuals(vectors, basis))


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


def solve_min_norm(a, b) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimum-norm least-squares solution of ``a x = b`` and its residual.

    A matrix ``b`` is solved in one call: the solution has a column per
    column of ``b``, and the residuals are an array, each from its own
    column's matrix-vector product.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=float)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    columns = np.ascontiguousarray(as_matrix(x).T)
    resid = _row_norms((a @ columns[:, :, None])[..., 0] - as_matrix(b).T)
    return x, float(resid[0]) if b.ndim == 1 else resid
