import numpy as np
import pytest

from lassokit import io as lio


def test_matrix_roundtrip(tmp_path):
    a = np.random.default_rng(0).normal(size=(4, 3))
    path = tmp_path / "a.mtx"
    lio.write_matrix_market_array(str(path), a)
    assert np.array_equal(lio.read_matrix_market_array(str(path)), a)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.25, 0.0])
    path = tmp_path / "v.txt"
    lio.write_vector(str(path), v)
    assert np.array_equal(lio.read_vector(str(path)), v)


def test_bad_matrix_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix\n1 1\n0.0\n")
    with pytest.raises(lio.ManifestError):
        lio.read_matrix_market_array(str(path))


def _write_bundle(tmp_path, scalars, extra=None):
    a = np.random.default_rng(1).normal(size=(3, 2))
    b = np.array([1.0, 2.0, 3.0])
    lio.write_matrix_market_array(str(tmp_path / "A.mtx"), a)
    lio.write_vector(str(tmp_path / "b.txt"), b)
    files = {"A": "A.mtx", "b": "b.txt"}
    if extra:
        files.update(extra)
    lio.write_manifest(str(tmp_path / "manifest.txt"), files, scalars)
    return a, b


def test_manifest_roundtrip_tau(tmp_path):
    a, b = _write_bundle(tmp_path, {"tau": 2.5, "mu": 0.25})
    problem, data = lio.problem_from_manifest(str(tmp_path / "manifest.txt"))
    assert problem is not None
    assert np.array_equal(problem.op.a, a)
    assert np.array_equal(problem.b, b)
    assert problem.tau == 2.5
    assert problem.mu == 0.25
    assert data["tau"] == 2.5


def test_manifest_sigma_mode(tmp_path):
    a, b = _write_bundle(tmp_path, {"sigma": 0.5})
    problem, data = lio.problem_from_manifest(str(tmp_path / "manifest.txt"))
    assert np.array_equal(problem.op.a, a)
    assert np.array_equal(problem.b, b)
    assert problem.tau == 0.0  # a sigma manifest fixes no radius
    assert data["sigma"] == 0.5 and "tau" not in data


def test_manifest_optional_vectors(tmp_path):
    _write_bundle(tmp_path, {"tau": 1.0}, extra={"w": "w.txt", "c": "c.txt"})
    lio.write_vector(str(tmp_path / "w.txt"), np.array([1.0, 2.0]))
    lio.write_vector(str(tmp_path / "c.txt"), np.array([0.1, -0.1]))
    problem, _ = lio.problem_from_manifest(str(tmp_path / "manifest.txt"))
    assert np.array_equal(problem.w, [1.0, 2.0])
    assert np.array_equal(problem.c, [0.1, -0.1])


@pytest.mark.parametrize("content", [
    "A = A.mtx\n",                       # missing b
    "A = A.mtx\nb = b.txt\n",            # neither tau nor sigma
    "A = A.mtx\nb = b.txt\ntau = 1\nsigma = 1\n",  # both
    "A = A.mtx\nb = b.txt\ntau = 1\nfoo = 2\n",    # unknown key
    "A = A.mtx\nb = b.txt\ntau = -1\n",  # negative radius
    "A = A.mtx\nb = b.txt\ntau = abc\n",  # non-numeric
    "garbage line\nA = A.mtx\nb = b.txt\ntau = 1\n",  # not key = value
])
def test_manifest_errors(tmp_path, content):
    _write_bundle(tmp_path, {"tau": 1.0})
    path = tmp_path / "manifest.txt"
    path.write_text(content)
    with pytest.raises(lio.ManifestError):
        lio.read_manifest(str(path))


@pytest.mark.parametrize("key", ["tau", "mu"])
def test_manifest_scalar_that_is_not_a_number_names_the_file(tmp_path, key):
    _write_bundle(tmp_path, {"tau": 1.0})
    path = tmp_path / "manifest.txt"
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith(key)]
    path.write_text("\n".join(lines + [f"{key} = abc"]) + "\n")
    with pytest.raises(lio.ManifestError,
                       match=f"manifest.txt: {key} is not a number"):
        lio.read_manifest(str(path))


def test_manifest_length_mismatch(tmp_path):
    _write_bundle(tmp_path, {"tau": 1.0}, extra={"w": "w.txt"})
    lio.write_vector(str(tmp_path / "w.txt"), np.ones(5))
    with pytest.raises(lio.ManifestError):
        lio.read_manifest(str(tmp_path / "manifest.txt"))


def test_manifest_comments_and_whitespace(tmp_path):
    _write_bundle(tmp_path, {"tau": 1.0})
    path = tmp_path / "manifest.txt"
    path.write_text("# comment\n\n  A = A.mtx  \nb = b.txt\ntau = 1.0\n")
    data = lio.read_manifest(str(path))
    assert data["tau"] == 1.0
