import numpy as np
import pytest

from chaoskit import reference, tensors
from chaoskit.rng import stream
from chaoskit.tensors import (
    SymTensor,
    Tensor,
    add,
    basis_tensor,
    contract,
    contraction_norm_sq,
    inner,
    norm,
    norm_sq,
    scale,
    sym,
    symmetrize,
    tensor,
)


def test_tensor_requires_square_shape():
    with pytest.raises(ValueError):
        tensor(np.zeros((2, 3)))


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        tensor(np.array([1.0, np.inf]))


def test_tensor_is_immutable():
    t = tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.coeffs[0, 0] = 5.0


def test_order_zero_tensor():
    t = tensor(np.array(3.5))
    assert t.order == 0
    assert t.dim is None
    assert t.item() == 3.5


def test_symtensor_constructor_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymTensor(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_projects_asymmetric_input():
    t = sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(t.coeffs, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_symmetrize_cross_product():
    # symmetrize(e1 (x) e2) has entries 1/2 at (0,1) and (1,0)
    t = symmetrize(basis_tensor(2, 0, 1))
    expected = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert isinstance(t, SymTensor)
    np.testing.assert_array_equal(t.coeffs, expected)


def test_symmetrize_order3_orbit():
    # e1 (x) e1 (x) e2: orbit of size 3, each entry 1/3
    t = symmetrize(basis_tensor(2, 0, 0, 1))
    assert t.coeffs[0, 0, 1] == pytest.approx(1.0 / 3.0)
    assert t.coeffs[0, 1, 0] == pytest.approx(1.0 / 3.0)
    assert t.coeffs[1, 0, 0] == pytest.approx(1.0 / 3.0)
    assert t.coeffs[1, 1, 1] == 0.0


def test_symmetrize_fixes_symmetric_input():
    rng = stream(11, "tensors:symfix")
    a = rng.standard_normal((3, 3))
    s = symmetrize(tensor(a + a.T))
    np.testing.assert_array_equal(s.coeffs, a + a.T)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 4), (4, 2)])
def test_symmetrize_against_permutation_average(n, d):
    rng = stream(7, f"tensors:symref:{n}:{d}")
    t = tensor(rng.standard_normal((d,) * n))
    s = symmetrize(t)
    ref = reference.symmetrize_bruteforce(t)
    np.testing.assert_allclose(s.coeffs, ref.coeffs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n,d", [(3, 12), (4, 8), (6, 8)])
def test_symmetrize_sorting_network_keys_equal_np_sort(n, d):
    # the orbit keys come from an odd-even transposition network over the
    # n index rows; they must be np.sort's, so the output is unchanged
    idx = np.indices((d,) * n, dtype=np.uint8).reshape(n, -1)
    want = np.sort(idx, axis=0)
    np.testing.assert_array_equal(tensors._sort_rows(idx), want)


def test_symmetrize_contracts_norm():
    rng = stream(7, "tensors:symnorm")
    for n in (2, 3, 4):
        t = tensor(rng.standard_normal((3,) * n))
        assert norm(symmetrize(t)) <= norm(t) + 1e-12


def test_contract_matrix_example():
    # full contraction of a matrix with itself is its squared norm
    f = sym(np.array([[1.0, 2.0], [2.0, 0.0]]))
    out = contract(f, f, 2)
    assert out.order == 0
    assert out.item() == pytest.approx(9.0)


def test_contract_zero_is_tensor_product():
    rng = stream(7, "tensors:c0")
    f = tensor(rng.standard_normal((3,)))
    g = tensor(rng.standard_normal((3, 3)))
    out = contract(f, g, 0)
    np.testing.assert_allclose(
        out.coeffs, np.einsum("i,jk->ijk", f.coeffs, g.coeffs))
    # ||f (x)_0 g|| = ||f|| ||g||
    assert norm(out) == pytest.approx(norm(f) * norm(g))


def test_contract_middle_is_matrix_product():
    rng = stream(7, "tensors:c1")
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    out = contract(tensor(a), tensor(b), 1)
    np.testing.assert_allclose(out.coeffs, a @ b, rtol=1e-13)


@pytest.mark.parametrize("n,m,p", [(1, 1, 1), (2, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 2), (3, 3, 1)])
def test_contract_against_loop_oracle(n, m, p):
    rng = stream(13, f"tensors:cref:{n}:{m}:{p}")
    for d in (2, 3, 4):
        f = tensor(rng.standard_normal((d,) * n))
        g = tensor(rng.standard_normal((d,) * m))
        got = contract(f, g, p).coeffs
        want = reference.contraction_bruteforce(f, g, p).coeffs
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_contract_range_checks():
    f = tensor(np.ones((2, 2)))
    g = tensor(np.ones(2))
    with pytest.raises(ValueError):
        contract(f, g, 2)
    with pytest.raises(ValueError):
        contract(f, tensor(np.ones(3)), 1)


def test_inner_and_norms():
    f = symmetrize(basis_tensor(2, 0, 1))
    assert norm_sq(f) == pytest.approx(0.5)
    assert inner(f, f) == pytest.approx(0.5)
    e = sym(basis_tensor(3, 1).coeffs)
    assert norm(e) == 1.0
    z = sym(np.zeros((2, 2)))
    assert norm(z) == 0.0


def test_add_and_scale_preserve_symmetry():
    f = symmetrize(basis_tensor(2, 0, 1))
    g = sym(np.eye(2))
    h = add(scale(f, 2.0), g)
    assert isinstance(h, SymTensor)
    np.testing.assert_array_equal(h.coeffs, 2.0 * f.coeffs + np.eye(2))


def test_contraction_norm_symmetry_in_p():
    # ||f (x)_p f||^2 = ||f (x)_{n-p} f||^2 lets the cheap side be used
    rng = stream(13, "tensors:cn")
    for n in (2, 3):
        f = sym(rng.standard_normal((3,) * n))
        for p in range(0, n + 1):
            lhs = contraction_norm_sq(f, p)
            rhs = norm_sq(contract(f, f, p))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tensor_equality_and_hash():
    a = tensor(np.ones((2, 2)))
    b = tensor(np.ones((2, 2)))
    assert a == b and hash(a) == hash(b)
    assert a != tensor(np.zeros((2, 2)))


def test_basis_tensor_bounds():
    with pytest.raises(ValueError):
        basis_tensor(2, 2)
