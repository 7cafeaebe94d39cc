import numpy as np
import pytest

from ratlanczos import (read_matrix_market, read_system_descriptor,
                        write_matrix_market)
from ratlanczos.control import system_from_descriptor
from ratlanczos.problems import gen_laplacian2d
from ratlanczos.shifts import default_shifts

from conftest import rand_sym


def test_matrix_market_roundtrip(tmp_path, rng):
    A, Ad = rand_sym(rng, 15, 0.5, 5.0)
    path = tmp_path / "a.mtx"
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert np.allclose(B.to_dense(), Ad, atol=1e-14)
    # the reader also takes general storage of symmetric data
    from scipy.io import mmwrite
    mmwrite(tmp_path / "g.mtx", A.to_scipy().tocoo(), symmetry="general")
    assert np.array_equal(read_matrix_market(tmp_path / "g.mtx").to_dense(),
                          A.to_dense())


def test_matrix_market_sparse_roundtrip(tmp_path):
    A = gen_laplacian2d(6)
    path = tmp_path / "lap.mtx"
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert B.nnz == A.nnz
    assert np.array_equal(B.to_dense(), A.to_dense())
    assert np.all(default_shifts(B, 12).values() > 0.0)


def test_descriptor_parsing(tmp_path, rng):
    A, Ad = rand_sym(rng, 6, -5.0, -0.5)
    write_matrix_market(A, tmp_path / "A.mtx")
    from scipy.io import mmwrite
    mmwrite(tmp_path / "B.mtx", rng.standard_normal((6, 2)))
    desc = tmp_path / "sys.txt"
    desc.write_text(
        "# demo system\n"
        "A = A.mtx\n"
        "B = B.mtx\n"
        "E = 1.0 2.0 1.5 1.0 1.0 2.5\n"
        "R = 2.0 0.0; 0.0 1.0\n"
        "x0 = 1 0 0 0 0 1\n")
    entries = read_system_descriptor(desc)
    assert entries["A"].endswith("A.mtx")
    assert entries["E"].shape == (6,)
    assert entries["R"].shape == (2, 2)
    sys_ = system_from_descriptor(desc)
    assert sys_.n == 6
    assert sys_.B.shape == (6, 2)


def test_descriptor_requires_A(tmp_path):
    desc = tmp_path / "bad.txt"
    desc.write_text("R = 1.0\n")
    with pytest.raises(ValueError):
        read_system_descriptor(desc)


@pytest.mark.parametrize("line", ["x_0 = 1 2 3", "mu_nodes = 0 1"])
def test_descriptor_rejects_unknown_key(tmp_path, line):
    # a misspelt or retired key is an error naming the file, line and key,
    # not a silently dropped entry
    desc = tmp_path / "sys.txt"
    desc.write_text(f"A = A.mtx\n# comment\n{line}\n")
    key = line.split("=")[0].strip()
    with pytest.raises(ValueError, match=rf"sys\.txt:3: unknown key '{key}'"):
        read_system_descriptor(desc)


def test_descriptor_rejects_repeated_key(tmp_path):
    # a second A line is an error naming both lines, not a silent override
    desc = tmp_path / "sys.txt"
    desc.write_text("A = a.mtx\n# comment\nA = b.mtx\n")
    with pytest.raises(ValueError,
                       match=r"sys\.txt:3: key 'A' already given on line 1"):
        read_system_descriptor(desc)


def test_descriptor_file_reference(tmp_path, rng):
    A, _ = rand_sym(rng, 4, -5.0, -0.5)
    write_matrix_market(A, tmp_path / "A.mtx")
    x0 = rng.standard_normal(4)
    from scipy.io import mmwrite
    mmwrite(tmp_path / "x0.mtx", x0.reshape(-1, 1))
    desc = tmp_path / "sys.txt"
    desc.write_text("A = A.mtx\nx0 = file:x0.mtx\n")
    sys_ = system_from_descriptor(desc)
    assert np.allclose(sys_.x0, x0)
