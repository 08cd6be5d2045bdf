"""Matrix extraction and unitarity analysis for first-order gates.

An abstraction annotated with a finite basis acts linearly over that
basis, so applying it to each basis element and reading the images off
in computational coordinates yields a matrix.  The gate is unitary
exactly when that matrix is square with gram matrix the identity; a
non-square matrix with identity gram is an isometry.  Verdicts carry
the worst gram entry as a witness so failures point at the offending
pair of columns.

numpy is imported inside extract_matrix, check_unitary and matrix_apply,
so importing this module does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .core import (
    Lam,
    Ortho,
    Record,
    TermDist,
    Var,
    free_vars,
    mk_app,
    mk_lam,
    mk_letpair,
    sc_eq,
    single,
)
from .basis import STD, decompose, product_basis, support_arity, to_vector
from .reduction import Stuck, run
from .subst import fresh_name
from .syntax import print_basis

if TYPE_CHECKING:
    import numpy as np
GRAM_TOL = 1e-6
# the widest image a matrix column is built for: 2**16 complex entries,
# 1 MiB; a 40-qubit column would ask for 16 TiB
MAX_IMAGE_QUBITS = 16


class UnitaryError(Exception):
    pass


class UnitaryReport(Record):
    def __init__(
        self,
        matrix: np.ndarray,
        basis: Ortho,
        square: bool,
        deviation: float,
        witness: tuple[int, int, complex],
    ):
        self.matrix = matrix
        self.basis = basis
        self.square = square
        self.deviation = deviation
        self.witness = witness

    @property
    def isometry(self) -> bool:
        return self.deviation <= GRAM_TOL

    @property
    def unitary(self) -> bool:
        return self.square and self.isometry

    @property
    def label(self) -> str:
        if self.unitary:
            return "unitary"
        if self.isometry:
            return "isometry"
        return "not unitary"


def _annotation(f: TermDist) -> Ortho:
    if len(f.entries) != 1 or not isinstance(f.entries[0][0], Lam):
        raise UnitaryError("matrix extraction needs a single abstraction")
    basis = f.entries[0][0].basis
    if not isinstance(basis, Ortho):
        raise UnitaryError(
            "matrix extraction needs a finite basis annotation"
        )
    return basis


def extract_matrix(
    f: TermDist, validate_norms: bool = True
) -> tuple[np.ndarray, Ortho]:
    """Images of the elements of the abstraction's annotation basis as
    matrix columns, in computational coordinates."""
    import numpy as np
    dom = _annotation(f)
    columns = []
    arity: Optional[int] = None
    for k, element in enumerate(dom.elements):
        final = run(mk_app(f, element)).final
        if isinstance(final, Stuck):
            raise UnitaryError(
                f"image of basis element {k} is stuck: {final.reason}"
            )
        image = final.dist
        n = support_arity(image)
        if n is None:
            raise UnitaryError(
                f"image of basis element {k} is not a qubit value"
            )
        if n > MAX_IMAGE_QUBITS:
            raise UnitaryError(
                f"image of basis element {k} has {n} qubits, more than "
                f"the {MAX_IMAGE_QUBITS} a matrix column is built for"
            )
        if arity is None:
            arity = n
        elif n != arity:
            raise UnitaryError("images have mixed qubit arities")
        columns.append(to_vector(image, n))
    assert arity is not None
    matrix = np.stack(columns, axis=1)
    if validate_norms:
        norms = np.linalg.norm(matrix, axis=0)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if not sc_eq(norms[worst], 1.0):
            raise UnitaryError(
                f"column {worst} has norm {norms[worst]:.12g}"
            )
    return matrix, dom


def check_unitary(f: TermDist) -> UnitaryReport:
    """Gram-matrix unitarity verdict with the worst entry as witness.
    Finite images whose gram matrix overflows are an extraction error:
    no verdict could be read from it."""
    import numpy as np
    matrix, basis = extract_matrix(f, validate_norms=False)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix.conj().T @ matrix
        error = np.abs(gram - np.eye(gram.shape[0]))
    if not np.isfinite(error).all():
        raise UnitaryError("gram matrix of the images is not finite")
    i, j = divmod(int(np.argmax(error)), gram.shape[1])
    return UnitaryReport(
        matrix=matrix,
        basis=basis,
        square=matrix.shape[0] == matrix.shape[1],
        deviation=float(error[i, j]),
        witness=(i, j, complex(gram[i, j])),
    )


def curried_bases(f: TermDist) -> Optional[tuple[Ortho, Ortho]]:
    """(outer, inner) annotation bases when f is a single curried
    two-argument abstraction with orthonormal annotations, else None."""
    if len(f.entries) != 1:
        return None
    outer = f.entries[0][0]
    if not isinstance(outer, Lam) or not isinstance(outer.basis, Ortho):
        return None
    if len(outer.body.entries) != 1:
        return None
    inner = outer.body.entries[0][0]
    if not isinstance(inner, Lam) or not isinstance(inner.basis, Ortho):
        return None
    return outer.basis, inner.basis


def uncurry2(f: TermDist, left: Ortho = STD, right: Ortho = STD) -> TermDist:
    """Wrap a curried two-argument gate as one abstraction over the
    product basis, so it can be analysed as a single matrix."""
    avoid = free_vars(f)
    z = fresh_name("z", avoid)
    x = fresh_name("x", avoid | {z})
    y = fresh_name("y", avoid | {z, x})
    return mk_lam(
        z,
        product_basis(left, right),
        mk_letpair(
            x,
            left,
            y,
            right,
            single(Var(z)),
            mk_app(mk_app(f, single(Var(x))), single(Var(y))),
        ),
    )


def uncurried(f: TermDist) -> tuple[TermDist, Optional[str]]:
    """The one abstraction whose matrix stands for the gate f.  A curried
    two-argument gate with orthonormal annotations is wrapped through
    uncurry2 over the product of its annotation bases, and the second
    value names that product ("B x B"); any other f is itself, with
    None."""
    parts = curried_bases(f)
    if parts is None:
        return f, None
    left, right = parts
    over = f"{print_basis(left)} x {print_basis(right)}"
    return uncurry2(f, left, right), over


def matrix_apply(matrix: np.ndarray, dom: Ortho, v: TermDist) -> np.ndarray:
    """Coordinates of the linear action of the matrix on a value given in
    the domain basis."""
    import numpy as np
    coeffs = decompose(v, dom)
    if coeffs is None:
        raise UnitaryError("value is not in the domain basis span")
    return matrix @ np.array(coeffs, dtype=complex)
