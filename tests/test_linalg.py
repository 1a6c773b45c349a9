import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qqasim.linalg import _unitarity_errors, block_diag, is_unitary, permutation_matrix
from qqasim.boolfun import TruthTable
from qqasim.simulator import QQA, run, verify

S = 1.0 / math.sqrt(2.0)
H2 = np.array([[S, S], [S, -S]])


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4), tol=1e-10)

    def test_or_combiner_gate(self):
        h4 = np.kron(H2, H2)
        gate = block_diag([H2, h4, h4, np.eye(6)])
        assert gate.shape == (16, 16)
        assert is_unitary(gate, tol=1e-10)

    def test_rank_deficient_rows(self):
        assert not is_unitary(np.array([[S, S], [S, S]]), tol=1e-10)

    def test_non_square(self):
        assert not is_unitary(np.ones((2, 3)))

    def test_bound_is_inclusive(self):
        gate = np.array([[1.0, -0.25], [-0.25, 1.0]])  # |G Gᵀ - I| is 0.5 at most, exactly
        assert is_unitary(gate, tol=0.5) is True
        assert is_unitary(gate, tol=np.nextafter(0.5, 0.0)) is False
        assert is_unitary(np.array([[np.nan]]), tol=1e300) is False

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            is_unitary(np.eye(2), tol=0.0)

    @pytest.mark.parametrize(
        "tol, message",
        [(math.nan, "^tol must be positive$"),
         ("0.1", "^tol must be a real number, got '0.1'$"),
         (None, "^tol must be a real number, got None$"),
         (True, "^tol must be a real number, got True$")],
        ids=["nan", "string", "none", "boolean"],
    )
    @pytest.mark.parametrize("ask", ["is_unitary", "verify"])
    def test_nan_tol_is_rejected(self, ask, tol, message):
        with pytest.raises(ValueError, match=message):
            if ask == "is_unitary":
                is_unitary(0.9 * np.eye(2), tol=tol)  # not unitary: a tolerance of 1 passes it
            else:
                verify(QQA(1, 2, [1, 0], (), (1, 0)), TruthTable(1, b"\x01\x01"), tol=tol)

    @pytest.mark.parametrize("matrix", [
        [["1", "0"], ["0", "1"]], np.eye(2, dtype=bool), [[True, 0], [0, True]], [[1, 0], [0]],
        [np.eye(2), np.ones((2, 3))], np.eye(2).astype(object), "10"],
        ids=["strings", "bool-array", "bool-entries", "ragged", "ragged-arrays", "object-array",
             "string"])
    def test_only_numbers_are_a_matrix(self, matrix):
        with pytest.raises(ValueError, match=(
                r"^matrix: expected numbers, got a ragged or non-numeric array$")):
            is_unitary(matrix)

    def test_numbers_of_every_kind_are_taken(self):
        assert is_unitary([[1, 0], [0, 1]]) and is_unitary(np.eye(2, dtype=np.int8))
        assert is_unitary([[np.float32(1), 0j], [0, 1]]) and not is_unitary([[2]])

    def test_batch_gives_each_gate_its_own_verdict(self):
        gates = [np.eye(2), H2, 2 * H2, [[S, S], [S, S]], [[np.nan, 0], [0, 1]], H2]
        with np.errstate(invalid="ignore"):
            errors = _unitarity_errors(np.array(gates, dtype=complex))
            verdicts = [is_unitary(g, tol=1e-10) for g in gates]
        assert list(errors <= 1e-10) == verdicts == [True, True, False, False, False, True]
        assert np.isnan(errors[4])

    def test_real_and_complex_stacks_give_the_same_verdicts(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        gates = [np.eye(4), q, q + 1e-9, 2 * q, np.kron(H2, H2), np.full((4, 4), np.nan)]
        for bad in (np.nan, np.inf, -np.inf):
            gate = np.eye(4)
            gate[1, 2] = bad
            gates.append(gate)
        phase = np.diag(np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5])))
        real = np.array(gates, dtype=complex)  # no imaginary part: checked in float64
        mixed = np.array(gates + [phase])  # one complex gate: the whole stack in complex
        with np.errstate(invalid="ignore"):
            verdicts = list(~(_unitarity_errors(real) <= 1e-10))
            assert list(~(_unitarity_errors(mixed) <= 1e-10)) == verdicts + [False]
            stored = _unitarity_errors(np.ascontiguousarray(real.real))  # as an algorithm keeps it
            assert stored.tobytes() == _unitarity_errors(real).tobytes()
            direct = np.abs(real @ real.conj().swapaxes(-1, -2) - np.eye(4)).max(axis=(-2, -1))
        assert verdicts == list(~(direct <= 1e-10))
        assert verdicts == [False, False, True, True, False, True, True, True, True]


def _apply(state, gate) -> np.ndarray:
    """The final state of a one-gate algorithm: gates act on row vectors, ``state @ gate``."""
    state = np.asarray(state, dtype=complex)
    m = len(state)
    final, _ = run(QQA(0, m, state, (gate,), (1,) + (0,) * (m - 1)), "")
    return final


class TestApply:
    def test_uniform_spread(self):
        u0 = np.kron(H2, H2)
        out = _apply([1, 0, 0, 0], u0)
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5], atol=1e-9)

    def test_identity_fixes_state(self):
        state = np.array([0.5, S, 0.0, 0.5])
        assert np.allclose(_apply(state, np.eye(4)), state)

    def test_final_gate_concentrates(self, eq3):
        final_gate = eq3.steps[-1]
        out = _apply([0.5, S, 0.0, 0.5], final_gate)
        assert np.allclose(out, [1, 0, 0, 0], atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"expected a 3x3 matrix, got \(4, 4\)"):
            _apply([1, 0, 0], np.eye(4))


class TestAdjoint:
    """The unitarity check multiplies each gate by its conjugate transpose."""

    def test_real_orthogonal_is_transpose(self):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        assert is_unitary(rotation, tol=1e-12)
        assert _unitarity_errors(np.array([rotation, rotation.T], dtype=complex)).max() <= 1e-15

    def test_involution(self):
        m = np.array([[1, 2j], [3, 4 - 1j]])
        u = np.linalg.qr(m)[0]
        errors = _unitarity_errors(np.array([u, u.conj().T, u.conj().T.conj().T]))
        assert errors.max() <= 1e-12
        assert not is_unitary(m)

    def test_one_by_one_conjugates(self):
        # i * conj(i) = 1, but i * i = -1: only a conjugating check passes a phase.
        assert is_unitary(np.array([[1j]]))
        assert _unitarity_errors(np.array([[[1j]]]))[0] == 0.0

    def test_inverts_unitary(self):
        u = np.kron(H2, H2)
        assert is_unitary(u, tol=1e-12)
        assert not is_unitary(2 * u, tol=1e-12)


class TestBlockDiag:
    def test_two_blocks_with_zero_off_blocks(self):
        u = np.kron(H2, H2)
        out = block_diag([u, u])
        assert out.shape == (8, 8)
        assert np.allclose(out[:4, :4], u)
        assert np.allclose(out[4:, 4:], u)
        assert np.all(out[:4, 4:] == 0)
        assert np.all(out[4:, :4] == 0)

    def test_identities_merge(self):
        assert np.allclose(block_diag([np.eye(2), np.eye(2)]), np.eye(4))

    def test_three_blocks_to_sixteen(self):
        out = block_diag([np.eye(4), np.eye(4), np.eye(8)])
        assert out.shape == (16, 16)
        assert np.allclose(out, np.eye(16))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            block_diag([])

    def test_non_square_block_rejected(self):
        with pytest.raises(ValueError, match="^every block must be a square matrix$"):
            block_diag([np.eye(2), np.ones((2, 3))])

    @pytest.mark.parametrize("blocks, at", [
        ([[["1"]]], 0), ([np.eye(2), [[True]]], 1), ([np.eye(1), np.eye(2, dtype=bool)], 1),
        ([[[1, 0], [0]]], 0), ([np.eye(1), [np.eye(2), np.ones((2, 3))]], 1)])
    def test_only_numbers_are_a_block(self, blocks, at):
        message = f"^blocks\\[{at}\\]: expected numbers, got a ragged or non-numeric array$"
        with pytest.raises(ValueError, match=message):
            block_diag(blocks)

    def test_float64_unless_a_block_is_complex(self):
        assert block_diag([[[1]], np.eye(2, dtype=np.int8)]).dtype == np.float64
        assert block_diag([np.eye(1, dtype=np.float32), [[1j]]]).dtype == np.complex128

    def test_unitary_blocks_make_unitary(self):
        rng = np.random.default_rng(7)
        blocks = []
        for dim in (2, 3, 4):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            blocks.append(q)
        assert is_unitary(block_diag(blocks), tol=1e-9)


class TestPermutationMatrix:
    def test_identity(self):
        assert np.allclose(permutation_matrix(range(5)), np.eye(5))

    def test_routing_semantics(self):
        p = permutation_matrix([2, 0, 1])
        out = np.array([10.0, 20.0, 30.0]) @ p
        assert np.allclose(out, [20.0, 30.0, 10.0])

    def test_inverse_composition(self):
        sigma = [3, 1, 0, 2]
        inverse = [sigma.index(i) for i in range(4)]
        assert np.allclose(
            permutation_matrix(sigma) @ permutation_matrix(inverse), np.eye(4)
        )

    def test_not_a_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            permutation_matrix([0, 0, 1])

    @pytest.mark.parametrize(
        "sigma", [[True, False], [False, True], [1, True, 2, 0], [1.0, 0.0], [0, 1.5], ["0", "1"]]
    )
    def test_only_integers_form_a_permutation(self, sigma):
        # Booleans index like 1 and 0: [True, False] would give [[1, 1], [0, 0]], not unitary.
        with pytest.raises(ValueError, match="permutation"):
            permutation_matrix(sigma)

    def test_numpy_integers_are_taken(self):
        sigma = np.array([2, 0, 1], dtype=np.int32)
        assert permutation_matrix(sigma).tobytes() == permutation_matrix([2, 0, 1]).tobytes()

    @given(st.permutations(range(6)))
    def test_single_one_per_row_and_column(self, sigma):
        p = permutation_matrix(sigma).real
        assert np.all(p.sum(axis=0) == 1)
        assert np.all(p.sum(axis=1) == 1)
        assert is_unitary(p)


@given(st.integers(0, 15))
def test_unitary_apply_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    assert abs(np.linalg.norm(_apply(state, q)) - 1.0) <= 1e-9
