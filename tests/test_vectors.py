"""Centroid-difference directions and top-3 projection scores."""
import numpy as np
import pytest

from psgp.cohort import load_manifest
from psgp.errors import (
    DataError,
    DegenerateDirectionError,
    FormatError,
    InsufficientClassError,
    UnknownOutcomeError,
)
from psgp.signalio import Modality
from psgp.vectors import (
    DiseaseVector,
    SubjectScore,
    compute_centroids,
    derive_disease_vector,
    derive_vectors,
    load_disease_vector,
    load_scores,
    project_segment,
    save_disease_vector,
    save_scores,
    score_cohort,
    subject_score,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _table(rows):
    """(subject_ids, X) from (subject_id, vector) rows, in table order."""
    return np.array([sid for sid, _ in rows]), np.array([vec for _, vec in rows], dtype=np.float64)


class TestComputeCentroids:
    def test_segment_weighted_means(self):
        labels = {"P": 1, "N": 0}
        ids, X = _table([("P", [1.0, 0.0]), ("P", [0.0, 1.0]), ("N", [-1.0, 0.0])])
        mu_pos, mu_neg = compute_centroids(ids, X, labels)
        np.testing.assert_allclose(mu_pos, [0.5, 0.5])
        np.testing.assert_allclose(mu_neg, [-1.0, 0.0])

    def test_unlabelled_subjects_skipped(self):
        labels = {"P": 1, "N": 0, "U": None}
        ids, X = _table([("P", [1.0]), ("N", [0.0]), ("U", [99.0])])
        mu_pos, mu_neg = compute_centroids(ids, X, labels)
        assert mu_pos[0] == 1.0 and mu_neg[0] == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientClassError):
            compute_centroids(*_table([("P", [1.0])]), {"P": 1})


class TestDeriveDiseaseVector:
    def test_unit_norm_and_direction(self):
        dv = derive_disease_vector([2.0, 0.0], [0.0, 0.0], "CVD", Modality.EEG)
        np.testing.assert_allclose(dv.vector, [1.0, 0.0])
        assert np.linalg.norm(dv.vector) == pytest.approx(1.0, rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        fwd = derive_disease_vector(a, b, "CVD", Modality.EEG).vector
        rev = derive_disease_vector(b, a, "CVD", Modality.EEG).vector
        np.testing.assert_allclose(fwd, -rev, rtol=1e-12)

    def test_rotation_equivariance(self):
        """Rotating all embeddings rotates the direction identically, so
        projections are invariant to a global rotation of the space."""
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = derive_disease_vector(a, b, "CVD", Modality.EEG).vector
        rotated = derive_disease_vector(q @ a, q @ b, "CVD", Modality.EEG).vector
        np.testing.assert_allclose(rotated, q @ base, rtol=1e-10, atol=1e-12)
        x = rng.standard_normal(5)
        p0 = x @ base
        p1 = (q @ x) @ rotated
        assert p1 == pytest.approx(p0, rel=1e-10)

    def test_coincident_centroids_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            derive_disease_vector([1.0, 1.0], [1.0, 1.0], "CVD", Modality.EEG)

    @pytest.mark.parametrize("name", ["vector", "mu_positive", "mu_negative"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_components_rejected(self, name, bad):
        """A NaN direction has no norm to fail the unit-norm check, so
        finiteness is checked on its own."""
        fields = {"vector": np.array([1.0, 0.0]), "mu_positive": np.zeros(2), "mu_negative": np.zeros(2)}
        fields[name] = np.array([bad, 0.0])
        with pytest.raises(DataError, match="non-finite"):
            DiseaseVector(outcome="CVD", modality=Modality.EEG, n_positive=1, n_negative=1, **fields)


class TestSubjectScore:
    def test_top3_mean(self):
        score, used = subject_score([0.1, 0.9, 0.5, 0.7, -0.2])
        assert used == 3
        assert score == pytest.approx((0.9 + 0.7 + 0.5) / 3.0)

    def test_fewer_than_three(self):
        score, used = subject_score([0.2, 0.6])
        assert used == 2
        assert score == pytest.approx(0.4)
        score1, used1 = subject_score([0.33])
        assert (score1, used1) == (pytest.approx(0.33), 1)

    def test_monotone_in_any_projection(self):
        base = [0.5, 0.4, 0.3, 0.2]
        s0, _ = subject_score(base)
        bumped = [0.5, 0.4, 0.3, 0.45]
        s1, _ = subject_score(bumped)
        assert s1 > s0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientClassError):
            subject_score([])


class TestVonMisesFisherRecovery:
    def test_planted_direction_recovered(self):
        """Positives drawn around +u, negatives around -u on the sphere: the
        derived direction must align with u almost perfectly."""
        rng = np.random.default_rng(42)
        d = 16
        u = _unit(rng.standard_normal(d))
        kappa = 8.0
        rows, labels = [], {}
        for i in range(60):
            sid = f"S{i:03d}"
            label = i % 2
            labels[sid] = label
            center = u if label == 1 else -u
            for j in range(4):
                rows.append((sid, _unit(kappa * center + rng.standard_normal(d))))
        mu_pos, mu_neg = compute_centroids(*_table(rows), labels)
        dv = derive_disease_vector(mu_pos, mu_neg, "CVD", Modality.EEG)
        assert float(dv.vector @ u) > 0.99

    def test_scores_separate_the_classes(self):
        rng = np.random.default_rng(43)
        d = 12
        u = _unit(rng.standard_normal(d))
        dv = derive_disease_vector(u, -u, "CVD", Modality.EEG)
        pos = [_unit(6.0 * u + rng.standard_normal(d)) for _ in range(30)]
        neg = [_unit(-6.0 * u + rng.standard_normal(d)) for _ in range(30)]
        pos_scores = [subject_score([project_segment(v, dv)])[0] for v in pos]
        neg_scores = [subject_score([project_segment(v, dv)])[0] for v in neg]
        assert min(pos_scores) > max(neg_scores)


def _manifest(tmp_path, rows, outcomes="CVD"):
    path = tmp_path / "manifest.csv"
    path.write_text(f"subject_id,age,sex,bmi,sbp,frs,{outcomes}\n" + "\n".join(rows) + "\n")
    return load_manifest(path)


def _interleaved(rng, counts, d):
    """Unit-norm f32 rows for subjects with the given row counts, shuffled so
    each subject's rows are spread through the table."""
    ids = np.array([sid for sid, n in counts.items() for _ in range(n)])
    ids = ids[rng.permutation(ids.shape[0])]
    X = rng.standard_normal((ids.shape[0], d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return ids, X.astype(np.float32)


class TestDeriveVectors:
    def test_train_split_only(self, tmp_path):
        manifest = _manifest(
            tmp_path,
            ["A,60,1,25,,,1", "B,61,0,26,,,0", "C,62,1,27,,,1", "D,63,0,28,,,0"],
        )
        tables = {
            Modality.EEG: _table([
                ("A", [1.0, 0.0]),
                ("B", [-1.0, 0.0]),
                # C carries an extreme vector that must not influence the result
                ("C", [0.0, 50.0]),
                ("D", [0.0, -50.0]),
            ])
        }
        dv = derive_vectors(tables, manifest, ["A", "B"], "CVD", Modality.EEG)
        np.testing.assert_allclose(dv.vector, [1.0, 0.0])
        assert dv.n_positive == 1 and dv.n_negative == 1

    def test_modality_filtering(self, tmp_path):
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1", "B,61,0,26,,,0"])
        tables = {
            Modality.EEG: _table([("A", [1.0, 0.0]), ("B", [-1.0, 0.0])]),
            Modality.ECG: _table([("A", [0.0, 9.0]), ("B", [0.0, -9.0])]),
        }
        dv = derive_vectors(tables, manifest, ["A", "B"], "CVD", Modality.EEG)
        np.testing.assert_allclose(dv.vector, [1.0, 0.0])

    def test_unknown_outcome(self, tmp_path):
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1"])
        with pytest.raises(UnknownOutcomeError):
            derive_vectors({}, manifest, ["A"], "Stroke", Modality.EEG)

    def test_single_class_train_split(self, tmp_path):
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1", "B,61,0,26,,,0"])
        tables = {Modality.EEG: _table([("A", [1.0, 0.0]), ("B", [-1.0, 0.0])])}
        with pytest.raises(InsufficientClassError):
            derive_vectors(tables, manifest, ["A"], "CVD", Modality.EEG)

    def test_matches_per_row_sum(self, tmp_path):
        """Oracle: the centroids equal a per-row float64 sum taken over the
        training subjects in id order, each subject's rows in table order."""
        manifest = _manifest(
            tmp_path,
            ["A,60,1,25,,,1", "B,61,0,26,,,0", "C,62,1,27,,,1", "D,63,0,28,,,0",
             "E,64,1,29,,,", "F,65,0,30,,,1"],
        )
        rng = np.random.default_rng(8)
        ids, X = _interleaved(rng, {"A": 3, "B": 1, "C": 5, "D": 2, "E": 4, "F": 3, "Z": 2}, 7)
        # float64 rows of mixed scale, so a sum in another row order rounds differently
        X = X * 10.0 ** rng.uniform(-4.0, 4.0, size=(X.shape[0], 1))
        train = ["D", "A", "B", "C", "E"]  # F is held out; E is unlabelled; Z is not in the manifest
        dv = derive_vectors({Modality.EEG: (ids, X)}, manifest, train, "CVD", Modality.EEG)
        labels = manifest.outcome_labels("CVD")
        sums = {0: np.zeros(7), 1: np.zeros(7)}
        rows = {0: 0, 1: 0}
        for sid in sorted(train):
            if labels.get(sid) is None:
                continue
            for row_sid, x in zip(ids, X):
                if row_sid == sid:
                    sums[labels[sid]] += np.asarray(x, dtype=np.float64)
                    rows[labels[sid]] += 1
        np.testing.assert_array_equal(dv.mu_positive, sums[1] / rows[1])
        np.testing.assert_array_equal(dv.mu_negative, sums[0] / rows[0])
        assert (dv.n_positive, dv.n_negative) == (2, 2)


class TestScoreCohort:
    def _setup(self, tmp_path):
        manifest = _manifest(
            tmp_path, ["A,60,1,25,,,1", "B,61,0,26,,,0", "C,62,1,27,,,"]
        )
        dv = derive_disease_vector([1.0, 0.0], [-1.0, 0.0], "CVD", Modality.EEG)
        tables = {
            Modality.EEG: _table([("A", [0.8, 0.6]), ("A", [0.6, 0.8]), ("B", [-0.8, 0.6])]),
            Modality.ECG: _table([("C", [0.0, 1.0])]),
        }
        return manifest, [dv], tables

    def test_scores_and_membership(self, tmp_path):
        manifest, vectors, tables = self._setup(tmp_path)
        scores = score_cohort(tables, vectors, manifest)
        by_id = {s.subject_id: s for s in scores}
        # C has no EEG embeddings, so no row for the EEG vector
        assert set(by_id) == {"A", "B"}
        assert by_id["A"].score == pytest.approx(0.7)
        assert by_id["A"].n_segments_used == 2
        assert by_id["B"].score == pytest.approx(-0.8)

    def test_pure_function(self, tmp_path):
        manifest, vectors, tables = self._setup(tmp_path)
        assert score_cohort(tables, vectors, manifest) == score_cohort(tables, vectors, manifest)

    def test_unlabelled_subjects_still_scored(self, tmp_path):
        """Scoring needs no labels; a subject missing the outcome label still
        gets a risk score for reporting."""
        manifest = _manifest(tmp_path, ["A,60,1,25,,,"])
        dv = derive_disease_vector([1.0, 0.0], [-1.0, 0.0], "CVD", Modality.EEG)
        scores = score_cohort({Modality.EEG: _table([("A", [1.0, 0.0])])}, [dv], manifest)
        assert len(scores) == 1 and scores[0].score == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self, tmp_path):
        """Oracle: per subject and vector, the top-3 rule over one
        project_segment call per row, walking the manifest in id order."""
        manifest = _manifest(
            tmp_path,
            ["A,60,1,25,,,1,0", "B,61,0,26,,,0,1", "C,62,1,27,,,1,", "D,63,0,28,,,,", "E,64,1,29,,,0,0"],
            outcomes="CVD,DM",
        )
        rng = np.random.default_rng(9)
        # 1, 2, 3 and 5 rows; D is unlabelled; Z is not in the manifest; E has no EEG rows
        tables = {
            Modality.EEG: _interleaved(rng, {"A": 1, "B": 2, "C": 3, "D": 5, "Z": 4}, 6),
            Modality.ECG: _interleaved(rng, {"A": 5, "B": 3, "C": 1, "D": 2, "E": 3, "Z": 2}, 6),
        }
        vectors = [
            derive_disease_vector(rng.standard_normal(6), rng.standard_normal(6), outcome, modality)
            for outcome, modality in [
                ("CVD", Modality.EEG), ("DM", Modality.ECG), ("DM", Modality.EEG), ("CVD", Modality.ECG)
            ]
        ]
        want = []
        for sid in sorted(manifest.rows):
            for vec in vectors:
                ids, X = tables[vec.modality]
                projections = [project_segment(x, vec) for row_sid, x in zip(ids, X) if row_sid == sid]
                if projections:
                    want.append((sid, vec.outcome, vec.modality, *subject_score(projections)))
        got = score_cohort(tables, vectors, manifest)
        assert [(s.subject_id, s.outcome, s.modality, s.n_segments_used) for s in got] == [
            w[:3] + (w[4],) for w in want
        ]
        for s, w in zip(got, want):
            assert s.score == pytest.approx(w[3], rel=1e-12, abs=1e-15)
        assert {w[0] for w in want} == {"A", "B", "C", "D", "E"}
        assert {w[4] for w in want} == {1, 2, 3}


class TestDiskFormats:
    def test_vector_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        dv = derive_disease_vector(
            rng.standard_normal(7), rng.standard_normal(7), "CVD", Modality.RESP
        )
        path = tmp_path / "v.txt"
        save_disease_vector(dv, path)
        back = load_disease_vector(path)
        assert back.outcome == dv.outcome and back.modality is dv.modality
        np.testing.assert_array_equal(back.vector, dv.vector)
        np.testing.assert_array_equal(back.mu_positive, dv.mu_positive)
        np.testing.assert_array_equal(back.mu_negative, dv.mu_negative)
        assert (back.n_positive, back.n_negative) == (dv.n_positive, dv.n_negative)

    def test_vector_file_malformations(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("outcome=CVD\nnonsense\n")
        with pytest.raises(FormatError):
            load_disease_vector(path)
        path.write_text("outcome=CVD\nmodality=EEG\nd=3\nn_positive=1\nn_negative=1\n"
                        "vector=1 0\nmu_positive=0 0 0\nmu_negative=0 0 0\n")
        with pytest.raises(FormatError):
            load_disease_vector(path)
        path.write_text("outcome=CVD\nmodality=EEG\nd=2\nn_positive=1\nn_negative=1\n"
                        "vector=nan 0\nmu_positive=0 0\nmu_negative=0 0\n")
        with pytest.raises(FormatError, match="v.txt"):
            load_disease_vector(path)

    def test_scores_round_trip_and_order(self, tmp_path):
        scores = [
            SubjectScore("B", "CVD", Modality.EEG, -0.25, 3),
            SubjectScore("A", "CVD", Modality.ECG, 0.125, 2),
            SubjectScore("A", "CVD", Modality.EEG, 0.5, 1),
        ]
        path = tmp_path / "scores.csv"
        save_scores(scores, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id,outcome,modality,score,n_segments_used"
        assert [l.split(",")[0] for l in lines[1:]] == ["A", "A", "B"]
        back = load_scores(path)
        assert back == sorted(scores, key=lambda s: (s.subject_id, s.outcome, s.modality.name))

    def test_scores_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("nope\n")
        with pytest.raises(FormatError):
            load_scores(path)
