"""Qubit distributions and orthonormal bases.

An n-qubit value is a distribution whose support consists of
right-associated length-n ket tuples and whose norm is 1.  A basis is a
family of same-arity qubits that is pairwise orthogonal and unit norm; it
may span only part of the 2**n dimensional space.

numpy is imported inside to_vector, the one function here that builds an
array, so importing this module does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .core import (
    Ket,
    Ortho,
    Pair,
    PureTerm,
    TermDist,
    add,
    combine,
    first_overlap,
    inner_product,
    mk_pair,
    norm,
    scale,
    sc_eq,
    sc_is_zero,
    single,
)

if TYPE_CHECKING:
    import numpy as np
_SQ2 = 2 ** -0.5


def ket_bits(t: PureTerm) -> Optional[str]:
    """Bit string of a right-associated ket tuple, else None."""
    if isinstance(t, Ket):
        return str(t.bit)
    if isinstance(t, Pair) and isinstance(t.left, Ket):
        rest = ket_bits(t.right)
        if rest is not None:
            return str(t.left.bit) + rest
    return None


def multi_ket(bits: str) -> TermDist:
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bad ket string: {bits!r}")
    out = single(Ket(int(bits[-1])))
    for b in reversed(bits[:-1]):
        out = mk_pair(single(Ket(int(b))), out)
    return out


def support_arity(d: TermDist) -> Optional[int]:
    """Qubit count of a nonzero distribution supported on same-length ket
    tuples, with no constraint on its norm; else None."""
    n: Optional[int] = None
    for t, _ in d.entries:
        bits = ket_bits(t)
        if bits is None:
            return None
        if n is None:
            n = len(bits)
        elif n != len(bits):
            return None
    return n


def qubit_arity(d: TermDist) -> Optional[int]:
    """Number of qubits if d is a qubit distribution, else None."""
    n = support_arity(d)
    if n is None or not sc_eq(norm(d), 1.0):
        return None
    return n


def to_vector(d: TermDist, n: int) -> np.ndarray:
    """Coordinates of a ket-supported distribution in the computational
    basis, leftmost ket bit most significant."""
    import numpy as np
    vec = np.zeros(2 ** n, dtype=complex)
    for t, c in d.entries:
        bits = ket_bits(t)
        if bits is None or len(bits) != n:
            raise ValueError("support is not length-n ket tuples")
        vec[int(bits, 2)] += c
    return vec


def from_vector(vec: np.ndarray, n: int) -> TermDist:
    if len(vec) != 2 ** n:
        raise ValueError("vector length must be 2**n")
    return combine(
        (complex(c), multi_ket(format(i, f"0{n}b")))
        for i, c in enumerate(vec)
        if not sc_is_zero(c)
    )


class BasisError(ValueError):
    pass


def validate_basis(b: Ortho) -> int:
    """Check the orthonormal-family-of-qubits conditions; return the
    common arity."""
    if not b.elements:
        raise BasisError("basis must be nonempty")
    arity: Optional[int] = None
    for i, e in enumerate(b.elements):
        n = qubit_arity(e)
        if n is None:
            raise BasisError(f"basis element {i} is not a qubit value")
        if arity is None:
            arity = n
        elif arity != n:
            raise BasisError("basis elements have mixed arities")
    assert arity is not None
    if len(b.elements) > 2 ** arity:
        raise BasisError("more elements than the space has dimensions")
    overlap = first_overlap(b.elements)
    if overlap is not None:
        i, j = overlap
        raise BasisError(f"basis elements {i} and {j} not orthogonal")
    return arity


def decompose(v: TermDist, b: Ortho) -> Optional[list[complex]]:
    """Coefficients of v over b, or None when v has a component outside
    the span (residual norm above the tolerance).  The residual
    v - sum c_i * e_i is one combination, built once."""
    coeffs = [inner_product(e, v) for e in b.elements]
    residual = combine(
        [(None, v)] + [(-c, e) for c, e in zip(coeffs, b.elements)]
    )
    if not sc_is_zero(norm(residual)):
        return None
    return coeffs


def expand(
    v: TermDist, b: Ortho, image: Callable[[int], TermDist]
) -> Optional[TermDist]:
    """sum c_i * image(i) over v's coefficients c_i on b, built as one
    combination, or None when v leaves the span.  image(i) is asked for
    only where c_i != 0.  Beta over an orthonormal annotation, the tensor
    let over two of them and the case match all fire through this."""
    coeffs = decompose(v, b)
    if coeffs is None:
        return None
    return combine((c, image(i)) for i, c in enumerate(coeffs) if c != 0)


def in_span(v: TermDist, b: Ortho) -> bool:
    return decompose(v, b) is not None


def product_basis(b1: Ortho, b2: Ortho) -> Ortho:
    """Pairwise pairs (e1, e2), left index varying slowest."""
    elems = tuple(
        mk_pair(e1, e2) for e1 in b1.elements for e2 in b2.elements
    )
    name = None
    if b1.name and b2.name:
        name = f"{b1.name}x{b2.name}"
    return Ortho(elems, name)


KET_PLUS = add(scale(_SQ2, multi_ket("0")), scale(_SQ2, multi_ket("1")))
KET_MINUS = add(scale(_SQ2, multi_ket("0")), scale(-_SQ2, multi_ket("1")))

PHI_PLUS = add(scale(_SQ2, multi_ket("00")), scale(_SQ2, multi_ket("11")))
PHI_MINUS = add(scale(_SQ2, multi_ket("00")), scale(-_SQ2, multi_ket("11")))
PSI_PLUS = add(scale(_SQ2, multi_ket("01")), scale(_SQ2, multi_ket("10")))
PSI_MINUS = add(scale(_SQ2, multi_ket("01")), scale(-_SQ2, multi_ket("10")))

STD = Ortho((multi_ket("0"), multi_ket("1")), "B")
HAD = Ortho((KET_PLUS, KET_MINUS), "X")
BELL = Ortho((PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS), "Bell")

NAMED_BASES: dict[str, Ortho] = {"B": STD, "X": HAD, "Bell": BELL}


def lookup_basis(name: str) -> Ortho:
    try:
        return NAMED_BASES[name]
    except KeyError:
        raise BasisError(f"unknown basis name: {name}") from None
