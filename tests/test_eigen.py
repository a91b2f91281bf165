"""The package's Hermitian eigen-solvers, states._eigh and states._eigvalsh:
bitwise equal to np.linalg.eigh/eigvalsh, and the one-entry memo of
states._hermitian_eigh, keyed on the matrix before it is hermitized."""
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from swpemux import states
from swpemux.analysis import fidelity, project_physical
from swpemux.states import _eigh, _eigvalsh, _hermitian_eigh, bell_state, werner_state

EMPTY_MEMO = (None, None, b"", None, None)


@pytest.fixture(autouse=True)
def clear_memo(monkeypatch):
    monkeypatch.setattr(states, "_hermitian_memo", EMPTY_MEMO)


def hermitian(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def pure(ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def hermitized_with_nan(rho: np.ndarray, index: tuple) -> np.ndarray:
    spoiled = np.array(rho, dtype=complex)
    spoiled[index] = math.nan
    return (spoiled + spoiled.conj().T) / 2.0


RNG = np.random.default_rng(1604)
RANDOM = [hermitian(RNG) for _ in range(40)]
RANK_DEFICIENT = [
    bell_state(45.0),
    bell_state(10.0),
    bell_state(0.0),
    pure([1.0, 1.0j, -0.5, 0.25 - 0.5j]),
    pure(RNG.normal(size=4) + 1j * RNG.normal(size=4)),
    np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex),
    np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex),
    np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
    np.zeros((4, 4), dtype=complex),
]
TWO_BY_TWO = [hermitian(RNG, 2), np.array([[1.0, -2.0j], [2.0j, 5.0]])]
STACK = np.stack([hermitian(RNG) for _ in range(7)] + RANK_DEFICIENT)
# the solves behind TestFidelity.test_nan_entry_raises and
# TestProjectPhysical.test_nan_entry_keeps_its_bytes: the spoiled matrices,
# and the inner matrix fidelity forms from a spoiled second argument
SPOILED = [hermitized_with_nan(np.eye(4) / 4.0, index) for index in ((0, 0), (1, 1), (1, 2))]
SPOILED.append(hermitized_with_nan(bell_state(45.0), (0, 0)))
_SQRT_DIAG = np.diag(np.sqrt([0.1, 0.2, 0.3, 0.4])).astype(complex)
NAN_INPUTS = SPOILED + [_SQRT_DIAG @ s @ _SQRT_DIAG for s in SPOILED]

EQUAL_INPUTS = {
    "random": RANDOM,
    "rank-deficient": RANK_DEFICIENT,
    "2x2": TWO_BY_TWO,
    "stack": [STACK],
}


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(solve, h):
    """(result or LinAlgError message, warnings raised) of one solve."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve(h)
        except np.linalg.LinAlgError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


class TestEquivalence:
    @pytest.mark.parametrize("kind", sorted(EQUAL_INPUTS))
    def test_eigh_is_bitwise_np_linalg(self, kind):
        for h in EQUAL_INPUTS[kind]:
            w, v = np.linalg.eigh(h)
            w_fast, v_fast = _eigh(h)
            assert same_bytes(w_fast, w) and same_bytes(v_fast, v)

    @pytest.mark.parametrize("kind", sorted(EQUAL_INPUTS))
    def test_eigvalsh_is_bitwise_np_linalg(self, kind):
        for h in EQUAL_INPUTS[kind]:
            assert same_bytes(_eigvalsh(h), np.linalg.eigvalsh(h))

    def test_stack_is_bitwise_its_single_solves(self):
        w, v = _eigh(STACK)
        for k, h in enumerate(STACK):
            w_k, v_k = _eigh(h)
            assert same_bytes(w[k], w_k) and same_bytes(v[k], v_k)

    def test_hermitian_part_of_a_stack_is_solved_per_matrix(self):
        rng = np.random.default_rng(77)
        stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        w, v = _hermitian_eigh(stack)
        for k, g in enumerate(stack):
            w_k, v_k = np.linalg.eigh((g + g.conj().T) / 2.0)
            assert same_bytes(w[k], w_k) and same_bytes(v[k], v_k)

    @pytest.mark.parametrize("k", range(len(NAN_INPUTS)))
    @pytest.mark.parametrize("ours, theirs", [
        (lambda h: _eigh(h), lambda h: np.linalg.eigh(h)),
        (lambda h: (_eigvalsh(h),), lambda h: (np.linalg.eigvalsh(h),)),
    ], ids=["eigh", "eigvalsh"])
    def test_nan_input_raises_or_warns_as_np_linalg(self, k, ours, theirs):
        result, caught = outcome(ours, NAN_INPUTS[k])
        expected, expected_caught = outcome(theirs, NAN_INPUTS[k])
        assert caught == expected_caught
        if isinstance(expected, str):
            assert result == expected == "Eigenvalues did not converge"
        else:
            assert all(same_bytes(a, b) for a, b in zip(result, expected, strict=True))

    def test_nan_inputs_cover_both_outcomes(self):
        outcomes = [outcome(np.linalg.eigvalsh, h)[0] for h in NAN_INPUTS]
        assert any(isinstance(r, str) for r in outcomes)
        assert any(not isinstance(r, str) for r in outcomes)


class CountingSolver:
    """Stands in for numpy's _umath_linalg and counts eigh_lo calls."""

    def __init__(self, gufuncs):
        self.eigh_calls = 0
        self._eigh_lo = gufuncs.eigh_lo
        self.eigvalsh_lo = gufuncs.eigvalsh_lo

    def eigh_lo(self, h, signature):
        self.eigh_calls += 1
        return self._eigh_lo(h, signature=signature)


class TestMemo:
    def test_unchanged_projection_is_solved_once(self, monkeypatch):
        counter = CountingSolver(states._umath_linalg)
        monkeypatch.setattr(states, "_umath_linalg", counter)
        rho = werner_state(45.0, 0.8)
        target = bell_state(45.0)
        value = fidelity(project_physical(rho), target)
        assert counter.eigh_calls == 1
        monkeypatch.setattr(states, "_hermitian_memo", EMPTY_MEMO)
        assert fidelity(rho, target) == value
        assert counter.eigh_calls == 2

    def test_key_is_the_matrix_before_it_is_hermitized(self, monkeypatch):
        counter = CountingSolver(states._umath_linalg)
        monkeypatch.setattr(states, "_umath_linalg", counter)
        rho = werner_state(45.0, 0.8)
        rho[0, 3] += 1e-13  # not Hermitian, so its bytes differ from its Hermitian part's
        physical = project_physical(rho)
        assert np.array_equal(physical, rho)
        assert states._hermitian_memo[2] == rho.tobytes()
        fidelity(physical, bell_state(45.0))
        assert counter.eigh_calls == 1

    def test_one_ulp_away_is_a_miss(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = g @ g.conj().T
        a /= np.trace(a).real
        b = a.copy()
        # a diagonal entry hermitizes to itself, so the ulp survives into the solve
        b[0, 0] = np.nextafter(a[0, 0].real, 1.0) + 1j * a[0, 0].imag
        target = bell_state(45.0)
        expected = fidelity(b, target)
        monkeypatch.setattr(states, "_hermitian_memo", EMPTY_MEMO)
        assert np.array_equal(project_physical(a), a)
        assert states._hermitian_memo[2] == a.tobytes()
        assert states._hermitian_memo[2] != b.tobytes()
        assert fidelity(b, target) == expected

    def test_equal_bytes_hit_without_the_same_object(self):
        h = RANDOM[0]
        w, v = _hermitian_eigh(h)
        w_again, v_again = _hermitian_eigh(h.copy())
        assert w_again is w and v_again is v

    def test_shape_is_part_of_the_key(self):
        # a (4, 4, 4) stack and an 8x8 matrix can hold the same bytes
        stack = np.stack([np.eye(4, dtype=complex)] * 4)
        square = stack.reshape(8, 8)
        w_stack, _ = _hermitian_eigh(stack)
        w_square, _ = _hermitian_eigh(square)
        assert w_stack.shape == (4, 4) and w_square.shape == (8,)

    def test_dtype_is_part_of_the_key(self):
        # a float64 matrix and its complex64 view hold the same bytes in the same shape
        real = np.arange(16.0).reshape(4, 4)
        view = real.view(np.complex64)
        assert view.shape == real.shape and view.tobytes() == real.tobytes()
        w_real, _ = _hermitian_eigh(real)
        w, v = _hermitian_eigh(view)
        w_ref, v_ref = _eigh((view + view.conj().T) / 2.0)
        assert w is not w_real and same_bytes(w, w_ref) and same_bytes(v, v_ref)

    def test_memoized_arrays_are_read_only(self):
        w, v = _hermitian_eigh(RANDOM[1])
        assert states._hermitian_memo[3] is w and states._hermitian_memo[4] is v
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0

    def test_two_threads_get_single_threaded_results(self):
        matrices = (RANDOM[2], RANDOM[3])
        expected = [np.linalg.eigh(h) for h in matrices]
        barrier = threading.Barrier(2, timeout=60)
        failures, finished = [], []

        def worker(first):
            barrier.wait()
            for k in range(500):
                which = (first + k) % 2
                w, v = _hermitian_eigh(matrices[which])
                if not (same_bytes(w, expected[which][0]) and same_bytes(v, expected[which][1])):
                    failures.append((first, k))
            finished.append(first)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(first,)) for first in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1]
        assert failures == []
