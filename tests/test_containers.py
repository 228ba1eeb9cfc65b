import dataclasses
import struct

import numpy as np
import pytest

from replaycm import cli, containers, pipeline
from replaycm.gmm import GmmModel
from replaycm.svm import LinearModel


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
    with pytest.raises(containers.ContainerFormatError, match="not a replaycm container"):
        containers.read_matrix(path)


def test_matrix_truncated_payload(tmp_path, rng):
    path = tmp_path / "m.rsft"
    containers.write_matrix(path, rng.standard_normal((4, 4)), {})
    data = path.read_bytes()
    path.write_bytes(data[:-10])  # the payload is the last field
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
    path.write_bytes(b"XXXX\x02\x03gmm")
    with pytest.raises(containers.ContainerFormatError, match="not a replaycm container"):
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
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(containers.ContainerFormatError):
            containers.read_matrix(path)


def matrix_with_metadata(path, blob: bytes) -> None:
    """A feature file holding a 2 x 3 matrix and ``blob`` as its metadata."""
    containers.write_matrix(path, np.zeros((2, 3)), {})
    empty = (2).to_bytes(4, "little") + b"{}"  # the length-prefixed "{}"
    data = path.read_bytes()
    assert data.count(empty) == 1
    path.write_bytes(data.replace(empty, len(blob).to_bytes(4, "little") + blob))


@pytest.mark.parametrize("blob, problem", [
    (b'{"name": "\xff"}', "not UTF-8 JSON"),
    (b'{"name": "x"', "not UTF-8 JSON"),
    (b'["name", "x"]', "JSON list, not an object"),
], ids=["not-utf8", "not-json", "not-an-object"])
def test_corrupt_matrix_metadata_is_refused_naming_the_file(tmp_path, blob, problem):
    path = tmp_path / "m.rsft"
    matrix_with_metadata(path, blob)
    with pytest.raises(containers.ContainerFormatError, match=problem) as info:
        containers.read_matrix(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("old, new", [
    (b"gmm", b"g\xe9m"),
    (b"weights", b"weight\xe9"),
], ids=["kind", "array-name"])
def test_non_ascii_model_text_is_refused_naming_the_file(tmp_path, rng, old, new):
    path = tmp_path / "m.rsmd"
    containers.write_model(path, "gmm", {"weights": rng.dirichlet(np.ones(2))})
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    with pytest.raises(containers.ContainerFormatError,
                       match="container kind or array name is not ASCII") as info:
        containers.read_model(path)
    assert str(info.value).startswith(f"{path}: ")


def test_matrix_with_trailing_bytes_is_refused(tmp_path, rng):
    path = tmp_path / "m.rsft"
    containers.write_matrix(path, rng.standard_normal((2, 3)), {"name": "x"})
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(containers.ContainerFormatError, match="2 byte"):
        containers.read_matrix(path)


def test_model_with_trailing_bytes_is_refused(tmp_path, rng):
    path = tmp_path / "m.rsmd"
    containers.write_model(path, "gmm", {"weights": rng.dirichlet(np.ones(2)),
                                         "means": rng.standard_normal((2, 3))})
    path.write_bytes(path.read_bytes() + bytes(range(80)))
    with pytest.raises(containers.ContainerFormatError, match="80 byte"):
        containers.read_model(path)


def example_model(kind: str):
    """One model of each kind in the pipeline's layout table."""
    rng = np.random.default_rng(7)
    return {
        "gmm": GmmModel(rng.dirichlet(np.ones(3)), rng.standard_normal((3, 4)),
                        rng.uniform(0.5, 2.0, (3, 4))),
        "tmatrix": rng.standard_normal((12, 2)),
        "mean": rng.standard_normal(5),
        "svm": LinearModel(rng.standard_normal(5), 0.25),
        "fusion": LinearModel(rng.standard_normal(3), -1.5),
    }[kind]


def model_values(model) -> list:
    if isinstance(model, np.ndarray):
        return [model]
    return [getattr(model, f.name) for f in dataclasses.fields(model) if f.compare]


@pytest.mark.parametrize("kind", sorted(pipeline.MODEL_LAYOUTS))
def test_every_model_kind_round_trips(tmp_path, kind):
    model = example_model(kind)
    path = tmp_path / f"{kind}.rsmd"
    pipeline.save_model(path, kind, model)
    back = pipeline.load_model(path, kind)
    assert type(back) is type(model)
    for saved, loaded in zip(model_values(model), model_values(back), strict=True):
        assert np.array_equal(loaded, saved)
    for other in set(pipeline.MODEL_LAYOUTS) - {kind}:
        with pytest.raises(ValueError, match=f"expected a {other} container, found '{kind}'"):
            pipeline.load_model(path, other)


@pytest.mark.parametrize("kind", sorted(pipeline.MODEL_LAYOUTS))
def test_a_model_missing_an_array_is_refused(tmp_path, kind):
    path = tmp_path / f"{kind}.rsmd"
    pipeline.save_model(path, kind, example_model(kind))
    _, arrays = containers.read_model(path)
    for name in list(arrays):
        containers.write_model(path, kind, {k: v for k, v in arrays.items() if k != name})
        with pytest.raises(containers.ContainerFormatError,
                           match=f"{kind} model has no array '{name}'"):
            pipeline.load_model(path, kind)


def test_a_model_that_breaks_its_type_names_the_file(tmp_path):
    path = tmp_path / "gmm.rsmd"
    containers.write_model(path, "gmm", {"weights": np.array([0.5, 0.5]),
                                         "means": np.zeros((2, 3)),
                                         "variances": -np.ones((2, 3))})
    with pytest.raises(containers.ContainerFormatError, match="variances must be strictly"):
        pipeline.load_model(path, "gmm")


def test_dims_whose_product_overflows_int64_are_refused_naming_the_file(tmp_path):
    """(65536,) * 4 holds 2**64 values: a product in int64 wraps to 0 and the
    header would pass for an empty array."""
    path = tmp_path / "m.rsmd"
    containers.write_model(path, "tmatrix", {"t_matrix": np.full((1, 1, 1, 1), 0.5)})
    ones, huge = struct.pack("<4I", 1, 1, 1, 1), struct.pack("<4I", *[65536] * 4)
    data = path.read_bytes()
    assert data.count(ones) == 1
    path.write_bytes(data.replace(ones, huge))
    with pytest.raises(containers.ContainerFormatError) as info:
        containers.read_model(path)
    assert str(info.value).startswith(f"{path}: ")
    out = tmp_path / "m.txt"
    assert cli.main(["dump", str(path), str(out)]) == 2
    assert not out.exists()


def test_a_feature_is_not_a_model_and_a_model_is_not_a_feature(tmp_path, rng):
    feature, model = tmp_path / "f.rsft", tmp_path / "m.rsmd"
    containers.write_matrix(feature, rng.standard_normal((2, 3)), {"name": "x"})
    pipeline.save_model(model, "mean", rng.standard_normal(3))
    with pytest.raises(containers.ContainerFormatError, match="not a model") as info:
        pipeline.load_model(feature, "gmm")
    assert str(info.value).startswith(f"{feature}: ")
    with pytest.raises(containers.ContainerFormatError,
                       match="not a feature container") as info:
        containers.read_matrix(model)
    assert str(info.value).startswith(f"{model}: ")


@pytest.mark.parametrize("arrays", [
    {"values": np.zeros(3)},
    {"values": np.zeros((2, 3)), "extra": np.zeros(1)},
    {"other": np.zeros((2, 3))},
], ids=["1-D", "two-arrays", "misnamed"])
def test_read_matrix_wants_one_2d_values_array(tmp_path, arrays):
    path = tmp_path / "f.rsft"
    containers._write(path, containers.FEATURE_KIND, {}, arrays)
    with pytest.raises(containers.ContainerFormatError, match="not a feature container"):
        containers.read_matrix(path)


@pytest.mark.parametrize("header, problem", [
    (b"RSFT\x01\x02\x00\x00\x00\x03\x00\x00\x00", "not a replaycm container"),
    (b"RSMD\x01\x03gmm\x00\x00\x00\x00", "not a replaycm container"),
    (b"RSCM\x01\x03gmm", "unsupported container version 1"),
], ids=["v1-feature", "v1-model", "version-1"])
def test_a_version_1_file_is_refused_naming_it(tmp_path, header, problem):
    path = tmp_path / "old.bin"
    path.write_bytes(header + bytes(24))
    for read in (containers.read_matrix, containers.read_model):
        with pytest.raises(containers.ContainerFormatError, match=problem) as info:
            read(path)
        assert str(info.value).startswith(f"{path}: ")


def test_an_item_size_other_than_4_or_8_is_refused(tmp_path):
    path = tmp_path / "m.rsmd"
    containers.write_model(path, "mean", {"mean": np.zeros(3)})
    data = path.read_bytes()
    marker = b"mean\x08\x01"  # name, item size 8, ndim 1
    assert data.count(marker) == 1
    path.write_bytes(data.replace(marker, b"mean\x02\x01"))
    with pytest.raises(containers.ContainerFormatError, match="item size 2"):
        containers.read_model(path)


def test_an_empty_kind_is_refused_naming_the_file(tmp_path):
    # the writer refuses an empty kind, so the reader does too
    path = tmp_path / "empty.rsmd"
    path.write_bytes(containers.MAGIC + struct.pack("<BBI", containers.FORMAT_VERSION, 0, 2)
                     + b"{}" + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="kind"):
        containers.write_model(tmp_path / "w.rsmd", "", {})
    for read in (containers.read_model, containers.read_matrix, containers.read_feature_meta):
        with pytest.raises(containers.ContainerFormatError) as info:
            read(path)
        assert str(info.value) == f"{path}: container kind is empty"
