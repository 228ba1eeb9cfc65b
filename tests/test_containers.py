import numpy as np
import pytest

from replaycm import containers


def test_matrix_roundtrip(tmp_path, rng):
    values = rng.standard_normal((7, 13)).astype(np.float32)
    meta = {"kind": "spectrogram", "name": "fft", "scale": "log-power"}
    path = tmp_path / "m.rsft"
    containers.write_matrix(path, values, meta)
    back, back_meta = containers.read_matrix(path)
    assert back.shape == (7, 13)
    assert np.array_equal(back, values.astype(np.float64))
    assert back_meta == meta


def test_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rsft"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(containers.ContainerFormatError, match="RSFT"):
        containers.read_matrix(path)


def test_matrix_truncated_payload(tmp_path, rng):
    path = tmp_path / "m.rsft"
    containers.write_matrix(path, rng.standard_normal((4, 4)), {})
    data = path.read_bytes()
    path.write_bytes(data[: 13 + 10])
    with pytest.raises(containers.ContainerFormatError, match="truncated"):
        containers.read_matrix(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_matrix_non_finite_refused_and_not_written(tmp_path, rng, bad):
    values = rng.standard_normal((3, 5))
    values[1, 2] = bad  # 1e39 is finite in float64 but overflows float32
    path = tmp_path / "m.rsft"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="1 non-finite"):
        containers.write_matrix(path, values, {})
    assert not path.exists()


def test_model_roundtrip_all_kinds(tmp_path, rng):
    cases = {
        "gmm": {"weights": rng.dirichlet(np.ones(3)), "means": rng.standard_normal((3, 4)),
                "variances": rng.uniform(0.5, 2.0, (3, 4))},
        "tmatrix": {"t_matrix": rng.standard_normal((12, 2))},
        "mean": {"mean": rng.standard_normal(5)},
        "svm": {"weight": rng.standard_normal(5), "bias": np.array([0.25])},
        "fusion": {"weights": rng.standard_normal(3), "offset": np.array([-1.5])},
    }
    for kind, arrays in cases.items():
        path = tmp_path / f"{kind}.rsmd"
        containers.write_model(path, kind, arrays)
        back_kind, back = containers.read_model(path)
        assert back_kind == kind
        assert set(back) == set(arrays)
        for name in arrays:
            assert np.array_equal(back[name], np.asarray(arrays[name], dtype=np.float64))


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.rsmd"
    path.write_bytes(b"XXXX\x01\x03gmm")
    with pytest.raises(containers.ContainerFormatError, match="RSMD"):
        containers.read_model(path)


def test_model_text_export(tmp_path):
    path = tmp_path / "m.txt"
    containers.write_model_text(path, "svm", {"weight": np.array([1.0, -2.5])})
    text = path.read_text()
    assert "kind: svm" in text
    assert "weight" in text
    assert "-2.5" in text


def test_write_read_is_byte_stable(tmp_path, rng):
    arrays = {"weights": rng.standard_normal(4)}
    p1, p2 = tmp_path / "a.rsmd", tmp_path / "b.rsmd"
    containers.write_model(p1, "fusion", arrays)
    containers.write_model(p2, "fusion", arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_every_proper_prefix_of_a_model_is_refused(tmp_path, rng):
    path = tmp_path / "m.rsmd"
    containers.write_model(path, "gmm", {"weights": rng.dirichlet(np.ones(2)),
                                         "means": rng.standard_normal((2, 3))})
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(containers.ContainerFormatError):
            containers.read_model(path)


def test_every_proper_prefix_of_a_matrix_is_refused(tmp_path, rng):
    path = tmp_path / "m.rsft"
    containers.write_matrix(path, rng.standard_normal((2, 3)), {"name": "x"})
    data = path.read_bytes()
    payload_end = 13 + 2 * 3 * 4
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        if cut == payload_end:  # the documented metadata-less form
            values, meta = containers.read_matrix(path)
            assert values.shape == (2, 3) and meta == {}
            continue
        with pytest.raises(containers.ContainerFormatError):
            containers.read_matrix(path)
