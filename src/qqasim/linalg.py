"""Row-vector linear algebra for small quantum systems.

States are unit-norm complex row vectors (bra convention): a gate ``G`` acts
as ``state @ G``, so a pipeline of gates reads left to right.  Everything is
dense and small; nothing here is tuned for dimensions beyond a few hundred.
"""
from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from .boolfun import _is_integer

#: Tolerance of the unitarity check applied to every gate.
UNITARY_TOL = 1e-10
#: Tolerance for state-vector norm drift during simulation.
NORM_TOL = 1e-9


def _check_tol(tol: float, probability: bool = False) -> None:
    """Refuse a ``tol`` that is neither a float nor an integer (:func:`_is_integer`, so never a
    boolean), one that is not positive, NaN included, and a ``probability`` one that is not
    below 1/2: at 1/2 every bounded-error worst case would count as exact, and an accepting
    amplitude of 1/2 as both 0 and 1."""
    if not (isinstance(tol, (float, np.floating)) or _is_integer(tol)):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if probability and not tol < 0.5:
        raise ValueError(f"tol must be below 1/2 for a probability, got {tol!r}")


def _within(miss, tol: float):
    """The one tolerance rule: whether ``miss`` is at most ``tol``, for a scalar or elementwise.

    ``miss`` is how far a value falls from its bound, or short of it, such
    as ``abs(norm - 1)`` or ``1 - p``: a value within ``tol`` of its bound
    passes, the bound included, and NaN never passes.  A scalar gives a ``bool``.
    """
    held = miss <= tol
    return held if isinstance(held, np.ndarray) else bool(held)


def _numbers(value, dtype=complex) -> np.ndarray | None:
    """The one number rule of every matrix and state: ``value`` as a new array of ``dtype``
    (``None``: numpy's own), or ``None`` if it is ragged or an entry is not a number or is a
    boolean.  An ndarray is judged by its dtype alone, anything else by the types of its
    entries, as ``np.array`` would read a boolean beside an integer as 1."""
    if isinstance(value, np.ndarray):
        numeric = value.dtype.kind in "iufc"
    else:
        try:
            entries = np.array(value, dtype=object).flat  # a ragged row stays a list entry
        except ValueError:  # ragged below the first axis, as in [eye(2), ones((2, 3))]
            return None
        numeric = all(issubclass(t, numbers.Number) and t is not bool
                      for t in set(map(type, entries)))
    return np.array(value, dtype=dtype) if numeric else None


def is_unitary(matrix, tol: float = UNITARY_TOL) -> bool:
    """True iff ``matrix @ matrix†`` matches the identity entrywise within ``tol``.

    ``matrix`` must hold numbers (:func:`_numbers`); one that is not square is not unitary.
    """
    _check_tol(tol)
    m = _numbers(matrix)
    if m is None:
        raise ValueError("matrix: expected numbers, got a ragged or non-numeric array")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return _within(float(_unitarity_errors(m[np.newaxis])[0]), tol)


def _unitarity_errors(stack: np.ndarray) -> np.ndarray:
    """Largest entrywise ``|G @ G† - I|`` of each gate ``G`` in a ``(k, m, m)`` stack.

    A gate that is not finite gets NaN or inf, which :func:`_within` never passes.
    A float64 stack, as every built-in and constructed algorithm keeps, is
    checked as it is; a complex one with no imaginary part is checked in
    float64 too, which is faster.
    """
    if stack.dtype == complex and not stack.imag.any():
        stack = np.ascontiguousarray(stack.real)
    adjoint = (stack.conj() if stack.dtype == complex else stack).swapaxes(-1, -2)
    return np.abs(stack @ adjoint - np.eye(stack.shape[-1])).max(axis=(-2, -1))


def block_diag(blocks: Sequence) -> np.ndarray:
    """Assemble square blocks into one block-diagonal matrix, zeros elsewhere.

    Every block must hold numbers (:func:`_numbers`).  The matrix is complex if a
    block is, and float64 otherwise.
    """
    mats = [_numbers(b, dtype=None) for b in blocks]
    if not mats:
        raise ValueError("block_diag needs at least one block")
    for i, b in enumerate(mats):
        if b is None:
            raise ValueError(f"blocks[{i}]: expected numbers, got a ragged or non-numeric array")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("every block must be a square matrix")
    dim = sum(b.shape[0] for b in mats)
    out = np.zeros((dim, dim), dtype=complex if any(map(np.iscomplexobj, mats)) else float)
    at = 0
    for b in mats:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def _check_permutation(sigma: Sequence[int], size: int, what: str) -> tuple:
    """``sigma`` as a tuple of ``int``, once it is a permutation of ``0..size-1``.

    Every entry must be an integer (:func:`~qqasim.boolfun._is_integer`); an
    error names ``what`` and the entries given.
    """
    sigma = tuple(sigma)
    if not all(map(_is_integer, sigma)) or sorted(sigma) != list(range(size)):
        raise ValueError(f"{what} must be a permutation of 0..{size - 1}, got {sigma}")
    return tuple(map(int, sigma))


def permutation_matrix(sigma: Sequence[int]) -> np.ndarray:
    """Matrix that routes the amplitude at position ``i`` to position ``sigma[i]``.

    For a row vector ``s``, ``(s @ P)[sigma[i]] == s[i]``.  ``sigma`` must be a
    permutation of ``0..len(sigma)-1`` in integers, never booleans (see
    :func:`_check_permutation`); the result, float64, is always unitary.
    """
    sigma = tuple(sigma)
    targets = _check_permutation(sigma, len(sigma), "sigma")
    n = len(targets)
    out = np.zeros((n, n))
    for i, j in enumerate(targets):
        out[i, j] = 1.0
    return out
