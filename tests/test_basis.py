import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from basislam.basis import (
    BELL,
    HAD,
    KET_PLUS,
    NAMED_BASES,
    PHI_PLUS,
    STD,
    BasisError,
    decompose,
    from_vector,
    in_span,
    ket_bits,
    lookup_basis,
    multi_ket,
    product_basis,
    qubit_arity,
    to_vector,
    validate_basis,
)
from basislam.core import (
    Ket,
    Ortho,
    add,
    local_settings,
    mk_pair,
    scale,
    single,
)
from gen import random_ortho, random_state


class TestVectors:
    def test_multi_ket_roundtrip(self):
        for bits in ("0", "1", "01", "10", "0110"):
            d = multi_ket(bits)
            assert ket_bits(d.entries[0][0]) == bits

    @given(st.integers(min_value=0, max_value=7), st.integers(1, 3))
    def test_to_vector_indexing(self, idx, n):
        idx = idx % (2**n)
        bits = format(idx, f"0{n}b")
        vec = to_vector(multi_ket(bits), n)
        expect = np.zeros(2**n, dtype=complex)
        expect[idx] = 1.0
        assert np.allclose(vec, expect)

    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_from_to_roundtrip(self, seed, n):
        rng = np.random.default_rng(seed)
        v = oracles.random_unit(n, rng)
        assert np.allclose(to_vector(from_vector(v, n), n), v, atol=1e-12)

    def test_qubit_arity_requires_unit_norm(self):
        assert qubit_arity(single(Ket(0))) == 1
        assert qubit_arity(PHI_PLUS) == 2
        assert qubit_arity(scale(2.0, single(Ket(0)))) is None
        assert qubit_arity(scale(0.5, PHI_PLUS)) is None


class TestValidate:
    def test_named_bases_are_valid(self):
        for b in (STD, HAD, BELL):
            validate_basis(b)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(BasisError):
            validate_basis(Ortho((single(Ket(0)), KET_PLUS)))

    def test_rejects_non_normalized(self):
        with pytest.raises(BasisError):
            validate_basis(Ortho((scale(0.5, single(Ket(0))),)))

    def test_rejects_mixed_arity(self):
        with pytest.raises(BasisError):
            validate_basis(Ortho((single(Ket(0)), PHI_PLUS)))

    def test_lookup(self):
        assert lookup_basis("B") is STD
        assert lookup_basis("X") is HAD
        assert lookup_basis("Bell") is BELL
        assert set(NAMED_BASES) == {"B", "X", "Bell"}
        with pytest.raises(BasisError):
            lookup_basis("nope")


class TestDecompose:
    @given(st.integers(0, 10_000))
    def test_recompose_std(self, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, 1)
        coeffs = decompose(v, STD)
        rebuilt = add(
            *(scale(c, e) for c, e in zip(coeffs, STD.elements))
        )
        assert np.linalg.norm(to_vector(rebuilt, 1) - to_vector(v, 1)) < 1e-10

    @given(st.integers(0, 10_000))
    def test_recompose_random_basis(self, seed):
        rng = np.random.default_rng(seed)
        b = random_ortho(rng, 1)
        v = random_state(rng, 1)
        coeffs = decompose(v, b)
        assert coeffs is not None
        rebuilt = add(*(scale(c, e) for c, e in zip(coeffs, b.elements)))
        assert np.linalg.norm(to_vector(rebuilt, 1) - to_vector(v, 1)) < 1e-8

    def test_outside_span_is_none(self):
        half_bell = Ortho((PHI_PLUS,))
        assert decompose(multi_ket("00"), half_bell) is None
        assert not in_span(multi_ket("00"), half_bell)
        assert in_span(PHI_PLUS, half_bell)

    def test_follows_global_tolerance(self):
        # a 1e-10 component outside the span is a real component at a
        # 1e-12 tolerance and noise at the default one
        only_zero = Ortho((single(Ket(0)),))
        with local_settings(eps=1e-12):
            v = add(single(Ket(0)), scale(1e-10, single(Ket(1))))
            assert decompose(v, only_zero) is None
        assert decompose(v, only_zero) == [1]

    def test_bell_coordinates(self):
        coeffs = decompose(multi_ket("00"), BELL)
        vec = np.array(coeffs)
        expect = np.zeros(4, dtype=complex)
        expect[0] = 1 / np.sqrt(2)
        expect[1] = 1 / np.sqrt(2)
        assert np.allclose(vec, expect)

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            b = random_ortho(rng, 2)
            v = random_state(rng, 2)
            assert decompose(v, b) is not None
            assert oracles.in_span_lstsq(
                to_vector(v, 2), [to_vector(e, 2) for e in b.elements]
            )


class TestProduct:
    def test_product_kron_order(self):
        p = product_basis(STD, HAD)
        assert len(p.elements) == 4
        for k, e in enumerate(p.elements):
            left = STD.elements[k // 2]
            right = HAD.elements[k % 2]
            assert np.allclose(
                to_vector(e, 2),
                np.kron(to_vector(left, 1), to_vector(right, 1)),
            )

    def test_product_name(self):
        assert product_basis(STD, HAD).name == "BxX"

    def test_pair_structure(self):
        from basislam.core import dist_eq

        p = product_basis(STD, STD)
        assert dist_eq(p.elements[3], mk_pair(single(Ket(1)), single(Ket(1))))
