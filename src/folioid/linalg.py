"""Subspace arithmetic on top of SVD.

All rank decisions use one policy: singular values below ``tol * scale``
are treated as zero.  The scale is the matrix's largest singular value,
except in an intersection, whose matrix is a projected product that is all
rounding noise when the intersection is everything: there it is the largest
column norm of the factor before projection.
Bases are returned as matrices whose *columns* are orthonormal; the empty
subspace is an ``(n, 0)`` matrix.

The SVD helpers and :func:`span_residuals` also take a ``(k, ...)`` stack of
matrices, each ranked on its own; a single matrix is a stack of one.  A stack
of bases is as wide as its widest member, and a narrower member has zero
columns in the slots it lacks.  Stacked SVDs and stacked matrix-vector
products round each matrix exactly as it would alone.
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


def _columns(m: np.ndarray, lo, hi) -> np.ndarray:
    """Columns ``lo:hi`` of each matrix of the stack ``m``, bounds per matrix; a
    column outside a matrix's own bounds but inside the widest is zero."""
    if m.ndim == 2:
        return m[:, lo:hi]
    lo, hi = np.broadcast_to(lo, m.shape[:-2]), np.broadcast_to(hi, m.shape[:-2])
    first, last = int(lo.min(initial=m.shape[-1])), int(hi.max(initial=0))
    m = m[..., first:max(first, last)]
    if (lo == first).all() and (hi == last).all():
        return m
    j = np.arange(first, first + m.shape[-1])
    return np.where((j >= lo[..., None, None]) & (j < hi[..., None, None]), m, 0.0)


def _rank(s: np.ndarray, tol: float, scale=None) -> np.ndarray:
    """Singular values of each matrix above ``tol`` times its top one, or ``scale``."""
    scale = s[..., :1] if scale is None else np.asarray(scale)[..., None]
    return (s > tol * scale).sum(-1)


def orth_basis(a, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``."""
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros(a.shape[:-1] + (0,))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return _columns(u, 0, _rank(s, tol))


def null_basis(a, tol: float = 1e-6, scale_of=None) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``; given ``scale_of``, the
    rank scale is its largest column norm (an intersection's unprojected factor)."""
    a = as_matrix(a)
    n = a.shape[-1]
    if a.size == 0:
        return np.broadcast_to(np.eye(n), a.shape[:-2] + (n, n)).copy()
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    scale = None if scale_of is None else np.linalg.norm(scale_of, axis=-2).max(
        axis=-1, initial=0.0)
    return _columns(vh.swapaxes(-1, -2), _rank(s, tol, scale), n)


def numerical_rank(a, tol: float = 1e-6):
    """The rank of ``a``, or an array of ranks for a stack."""
    a = as_matrix(a)
    rank = (np.zeros(a.shape[:-2], dtype=int) if a.size == 0
            else _rank(np.linalg.svd(a, compute_uv=False), tol))
    return rank if rank.ndim else int(rank)


def intersect_subspaces(a, b, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal coefficients ``c`` with ``a c`` in ``span(b)``.

    For ``b`` orthonormal and ``a`` of full column rank, ``a c`` spans
    ``span(a) & span(b)``: the principal vectors at angle zero, the null
    space of ``(I - b b^T) a`` (Bjorck & Golub 1973), found by one SVD
    ranked against the largest column norm of ``a``.
    """
    a, b = as_matrix(a), as_matrix(b)
    return null_basis(a - b @ (b.swapaxes(-1, -2) @ a), tol, scale_of=a)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row of an (..., n) array, each a dot product as ``np.linalg.norm``
    takes it."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])


def span_residuals(vectors, basis) -> np.ndarray:
    """Sine of the angle between each column of ``vectors`` and ``span(basis)``,
    one row of sines per matrix of a stack.

    A column of norm below 1e-13 gives 0 and one with a NaN or infinite entry
    gives NaN, also against an empty basis.  The columns are projected in
    place by stacked matrix-vector products, never one matrix product, so
    each residual rounds exactly as that column alone would.
    """
    rows = as_matrix(vectors).swapaxes(-1, -2)  # a view: a strided column stays strided
    basis = as_matrix(basis)[..., None, :, :]
    rem = rows - (basis @ (basis.swapaxes(-1, -2) @ rows[..., None]))[..., 0]
    norms, out = _row_norms(rows), np.zeros(rows.shape[:-1])
    keep = ~(norms < 1e-13)
    out[keep] = _row_norms(rem[keep]) / norms[keep]
    return out


def max_span_residual(vectors, basis):
    """Largest ``span_residuals`` entry of each matrix; 0.0 if it has no columns."""
    return np.abs(span_residuals(vectors, basis)).max(axis=-1, initial=0.0)


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
