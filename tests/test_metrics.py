import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replaycm.metrics import (
    ScoreFileError,
    ScoreSet,
    compute_eer,
    det_points,
    read_scores,
    write_scores,
)


def brute_force_eer(genuine, spoof):
    """Independent sweep: loop-counted rates at every distinct threshold plus
    an accept-nothing end point, crossing resolved by linear interpolation."""
    genuine = list(genuine)
    spoof = list(spoof)
    thresholds = sorted(set(genuine) | set(spoof))
    points = []
    for t in thresholds:
        far = sum(1 for s in spoof if s >= t) / len(spoof)
        frr = sum(1 for g in genuine if g < t) / len(genuine)
        points.append((far, frr))
    points.append((0.0, 1.0))
    for (far1, frr1), (far2, frr2) in zip(points, points[1:]):
        d1, d2 = far1 - frr1, far2 - frr2
        if d1 > 0 >= d2:
            lam = d1 / (d1 - d2)
            return far1 + lam * (far2 - far1)
    return 0.5 * (points[0][0] + points[0][1])


class TestEer:
    def test_perfectly_separated(self):
        eer, _ = compute_eer([1.0, 2.0, 3.0], [-1.0, 0.0])
        assert eer == 0.0

    def test_one_third_crossing(self):
        eer, threshold = compute_eer([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        assert np.isclose(eer, 1.0 / 3.0)
        assert 0.3 < threshold <= 0.7

    def test_total_inversion(self):
        eer, _ = compute_eer([-1.0, 0.0], [1.0, 2.0])
        assert eer == 1.0

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            compute_eer([], [1.0])

    def test_matches_brute_force_on_200_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_g = int(rng.integers(1, 200))
            n_s = int(rng.integers(1, 200))
            shift = rng.uniform(-1.0, 2.0)
            genuine = rng.standard_normal(n_g) + shift
            spoof = rng.standard_normal(n_s)
            eer, _ = compute_eer(genuine, spoof)
            assert abs(eer - brute_force_eer(genuine, spoof)) <= 1e-9

    def test_invariant_under_monotone_transforms(self, rng):
        genuine = rng.standard_normal(40) + 0.5
        spoof = rng.standard_normal(50)
        base, _ = compute_eer(genuine, spoof)
        for transform in (
            lambda s: 3.0 * s + 1.0,
            np.tanh,
            lambda s: s**3,
            np.exp,
        ):
            eer, _ = compute_eer(transform(genuine), transform(spoof))
            assert abs(eer - base) <= 1e-12


class TestDetPoints:
    def test_extreme_thresholds(self):
        far, frr, thresholds = det_points([1.0, 2.0], [0.0, 0.5])
        assert far[0] == 1.0 and frr[0] == 0.0  # below every score: accept all
        assert frr[-1] < 1.0  # at the max score itself, that trial still accepted
        assert far[-1] == 0.0

    def test_monotonicity_against_sorted_oracle(self, rng):
        genuine = rng.standard_normal(60)
        spoof = rng.standard_normal(45)
        far, frr, thresholds = det_points(genuine, spoof)
        assert np.all(np.diff(thresholds) > 0)
        assert np.all(np.diff(far) <= 0)
        assert np.all(np.diff(frr) >= 0)
        for t, fa, fr in zip(thresholds, far, frr):
            assert fa == np.mean(spoof >= t)
            assert fr == np.mean(genuine < t)

    def test_one_point_per_distinct_threshold(self):
        far, frr, thresholds = det_points([1.0, 1.0, 2.0], [0.5, 0.5])
        assert thresholds.tolist() == [0.5, 1.0, 2.0]

    # few distinct values, so that ties and both signed zeros are common
    SCORES = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0]) | st.floats(-1e3, 1e3),
                      min_size=1, max_size=12)

    @settings(max_examples=200, deadline=None)
    @given(genuine=SCORES, spoof=SCORES)
    def test_matches_a_unique_based_oracle(self, genuine, spoof):
        genuine, spoof = np.array(genuine), np.array(spoof)
        thresholds = np.unique(np.concatenate([genuine, spoof]))
        far, frr, got = det_points(genuine, spoof)
        assert got.tobytes() == thresholds.tobytes()  # the same zero's sign too
        assert far.tolist() == [np.mean(spoof >= t) for t in thresholds]
        assert frr.tolist() == [np.mean(genuine < t) for t in thresholds]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            det_points([1.0, bad], [0.0])
        with pytest.raises(ValueError, match="finite"):
            compute_eer([1.0], [bad, 0.0])


class TestScoreFiles:
    def test_parse_simple_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("f001 1.25\n")
        scores = read_scores(path)
        assert scores.trial_ids == ("f001",)
        assert scores.scores[0] == 1.25

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a 1.0\nb 2.0\na 3.0\n")
        with pytest.raises(ScoreFileError, match=r"3.*'a'.*line 1|'a'.*line 1"):
            read_scores(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a 1.0\nb 2.0 extra\n")
        with pytest.raises(ScoreFileError, match=":2:"):
            read_scores(path)

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a one\n")
        with pytest.raises(ScoreFileError, match="invalid score"):
            read_scores(path)

    def test_roundtrip_1000_random_scores(self, tmp_path, rng):
        ids = tuple(f"t{i:04d}" for i in range(1000))
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000)
        path = tmp_path / "s.txt"
        write_scores(ScoreSet(ids, values), path)
        back = read_scores(path)
        assert back.trial_ids == ids
        assert np.array_equal(back.scores, values)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a 1.5e-3\nb -2E4\n")
        scores = read_scores(path)
        assert np.allclose(scores.scores, [1.5e-3, -2e4])


@settings(max_examples=40, deadline=None)
@given(
    genuine=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
    spoof=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
)
def test_eer_between_zero_and_one(genuine, spoof):
    eer, _ = compute_eer(genuine, spoof)
    assert 0.0 <= eer <= 1.0
    assert abs(eer - brute_force_eer(genuine, spoof)) <= 1e-9
