"""Built-in matrix families with known joint spectral radius 1.

These are the classical irreducible examples: all elementary matrices, the
cyclic shift pattern, a sampled unitary group together with a strict
contraction, a scaled sampled unitary group adjoined to the identity, and
the unipotent pair in SL2.  The unitary families stand in for an infinite
group by finite Haar samples, so their constructors take a seed and count
and the metadata records that caveat.  Each constructor returns a
``MatrixSet``; ``build_family`` returns the ``InputDocument`` of a named
family, the set with its member labels and metadata.
"""

from __future__ import annotations

import numpy as np

from .core import MatrixSet
from .documents import InputDocument

__all__ = [
    "FAMILY_NAMES",
    "build_family",
    "elementary",
    "eps_identity",
    "haar_unitary",
    "shift",
    "unipotent_pair",
    "unitary_mix",
]

FAMILY_NAMES = (
    "elementary",
    "shift",
    "unitary-mix",
    "eps-identity",
    "unipotent-pair",
)

SAMPLED_NOTE = "finite sample standing in for the full unitary group"


def _basis_matrix(i: int, j: int, d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def elementary(d: int) -> MatrixSet:
    """All d^2 matrices with a single unit entry; rho = 1 via E_ii."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return MatrixSet.from_arrays(
        [_basis_matrix(i, j, d) for i in range(d) for j in range(d)]
    )


def shift(d: int) -> MatrixSet:
    """The cyclic pattern {E_12, E_23, ..., E_(d-1)d, E_d1}.

    Every product shorter than d kills some basis vector, so the first
    nonzero spectral radius appears exactly at word length d, where the
    full cycle fixes e_1.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    mats = [_basis_matrix(i, i + 1, d) for i in range(d - 1)]
    mats.append(_basis_matrix(d - 1, 0, d))
    return MatrixSet.from_arrays(mats)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a complex Gaussian with the R-diagonal phases absorbed, which
    # makes the distribution exactly Haar rather than merely orthogonalized
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def unitary_mix(d: int, count: int = 8, seed: int = 0) -> MatrixSet:
    """Sampled unitaries together with the contraction diag(1/2, 1/3, ...)."""
    if d < 1 or count < 1:
        raise ValueError("need d >= 1 and count >= 1")
    rng = np.random.default_rng(seed)
    mats = [haar_unitary(d, rng) for _ in range(count)]
    mats.append(np.diag([1.0 / (i + 2) for i in range(d)]))
    return MatrixSet.from_arrays(mats)


def eps_identity(d: int, eps: float = 0.5, count: int = 8, seed: int = 0) -> MatrixSet:
    """The identity adjoined to eps times sampled unitaries, 0 < eps < 1."""
    if d < 1 or count < 1:
        raise ValueError("need d >= 1 and count >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    mats = [np.eye(d, dtype=np.complex128)]
    mats.extend(eps * haar_unitary(d, rng) for _ in range(count))
    return MatrixSet.from_arrays(mats)


def unipotent_pair(scale: float = 1.0) -> MatrixSet:
    """The upper and lower unipotent generators of SL2, optionally rescaled."""
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    b = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.complex128)
    return MatrixSet.from_arrays([scale * a, scale * b])


def build_family(
    name: str, dim: int = 2, eps: float = 0.5, count: int = 8, seed: int = 0
) -> InputDocument:
    """The document of a named family: its set, member labels and metadata."""
    if name == "elementary":
        s = elementary(dim)
        labels = tuple(f"E{i + 1}{j + 1}" for i in range(dim) for j in range(dim))
        meta = {"family": name, "dim": dim}
    elif name == "shift":
        s = shift(dim)
        labels = tuple(
            f"E{i + 1}{i + 2}" for i in range(dim - 1)
        ) + (f"E{dim}1",)
        meta = {"family": name, "dim": dim}
    elif name == "unitary-mix":
        s = unitary_mix(dim, count=count, seed=seed)
        labels = tuple(f"u{i + 1}" for i in range(count)) + ("t",)
        meta = {
            "family": name,
            "dim": dim,
            "count": count,
            "seed": seed,
            "sampled": SAMPLED_NOTE,
        }
    elif name == "eps-identity":
        s = eps_identity(dim, eps=eps, count=count, seed=seed)
        labels = ("id",) + tuple(f"u{i + 1}" for i in range(count))
        meta = {
            "family": name,
            "dim": dim,
            "eps": eps,
            "count": count,
            "seed": seed,
            "sampled": SAMPLED_NOTE,
        }
    elif name == "unipotent-pair":
        s = unipotent_pair()
        labels = ("upper", "lower")
        meta = {"family": name, "dim": 2}
    else:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    return InputDocument(s, labels, meta)
