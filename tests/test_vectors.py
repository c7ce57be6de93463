"""Centroid-difference directions and top-3 projection scores."""
import re

import numpy as np
import pytest

from psgp.cohort import CohortManifest, SubjectRow, load_manifest
from psgp.errors import (
    DataError,
    DegenerateDirectionError,
    FormatError,
    InsufficientClassError,
    ManifestError,
)
from psgp.signalio import Modality
from psgp.vectors import (
    DiseaseVector,
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


def _one_chunk(tables):
    """``derive_vectors``' and ``score_cohort``'s input: each table as one chunk of rows."""
    return {m: [table] for m, table in tables.items()}


def _centroids(rows, labels):
    """(mu_positive, mu_negative) of the rows as ``derive_vectors`` takes them
    for a manifest of the labelled subjects, every one of them in training."""
    manifest = CohortManifest(
        {sid: SubjectRow(sid, 60.0, 1, 25.0, None, None, {"CVD": y}) for sid, y in labels.items()}, ("CVD",)
    )
    (dv,) = derive_vectors(_one_chunk({Modality.EEG: _table(rows)}), manifest, labels, ["CVD"]).values()
    return dv.mu_positive, dv.mu_negative


class TestComputeCentroids:
    def test_segment_weighted_means(self):
        labels = {"P": 1, "N": 0}
        mu_pos, mu_neg = _centroids([("P", [1.0, 0.0]), ("P", [0.0, 1.0]), ("N", [-1.0, 0.0])], labels)
        np.testing.assert_allclose(mu_pos, [0.5, 0.5])
        np.testing.assert_allclose(mu_neg, [-1.0, 0.0])

    def test_unlabelled_subjects_skipped(self):
        labels = {"P": 1, "N": 0, "U": None}
        mu_pos, mu_neg = _centroids([("P", [1.0]), ("N", [0.0]), ("U", [99.0])], labels)
        assert mu_pos[0] == 1.0 and mu_neg[0] == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientClassError):
            _centroids([("P", [1.0])], {"P": 1})


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
            DiseaseVector(n_positive=1, n_negative=1, **fields)


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
        mu_pos, mu_neg = _centroids(rows, labels)
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
        vectors = derive_vectors(_one_chunk(tables), manifest, ["A", "B"], ["CVD"])
        assert list(vectors) == [("CVD", Modality.EEG)]
        dv = vectors["CVD", Modality.EEG]
        np.testing.assert_allclose(dv.vector, [1.0, 0.0])
        assert dv.n_positive == 1 and dv.n_negative == 1

    def test_modality_filtering(self, tmp_path):
        """The modalities are the keys of the tables: each vector comes from
        its own modality's table alone."""
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1", "B,61,0,26,,,0"])
        tables = {
            Modality.EEG: _table([("A", [1.0, 0.0]), ("B", [-1.0, 0.0])]),
            Modality.ECG: _table([("A", [0.0, 9.0]), ("B", [0.0, -9.0])]),
        }
        eeg = derive_vectors(_one_chunk({Modality.EEG: tables[Modality.EEG]}), manifest, ["A", "B"], ["CVD"])
        assert list(eeg) == [("CVD", Modality.EEG)]
        np.testing.assert_allclose(eeg["CVD", Modality.EEG].vector, [1.0, 0.0])
        both = derive_vectors(_one_chunk(tables), manifest, ["A", "B"], ["CVD"])
        assert list(both) == [("CVD", Modality.EEG), ("CVD", Modality.ECG)]
        np.testing.assert_allclose(both["CVD", Modality.EEG].vector, [1.0, 0.0])
        np.testing.assert_allclose(both["CVD", Modality.ECG].vector, [0.0, 1.0])

    def test_unknown_outcome(self, tmp_path):
        """The manifest refuses the outcome before any table is read."""
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1"])
        def unread():
            raise AssertionError("table read")
            yield

        with pytest.raises(ManifestError, match="no outcome column 'Stroke'"):
            derive_vectors({Modality.EEG: unread()}, manifest, ["A"], ["Stroke"])

    def test_single_class_train_split(self, tmp_path):
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1", "B,61,0,26,,,0"])
        tables = {Modality.EEG: _table([("A", [1.0, 0.0]), ("B", [-1.0, 0.0])])}
        with pytest.raises(InsufficientClassError):
            derive_vectors(_one_chunk(tables), manifest, ["A"], ["CVD"])

    def test_pairs_come_outcome_by_outcome(self, tmp_path):
        """Each table is read once for all outcomes; every vector equals the
        one derived for its pair alone, in outcome-major order."""
        manifest = _manifest(
            tmp_path, ["A,60,1,25,,,1,0", "B,61,0,26,,,0,1", "C,62,1,27,,,1,1", "D,63,0,28,,,0,0"],
            outcomes="CVD,DM",
        )
        rng = np.random.default_rng(5)
        tables = {m: _interleaved(rng, {"A": 2, "B": 3, "C": 1, "D": 4}, 5) for m in (Modality.EEG, Modality.ECG)}
        tables = {m: tables[m] for m in (Modality.ECG, Modality.EEG)}  # drawn as EEG, ECG; passed as ECG, EEG
        pairs = [(o, m) for o in ("DM", "CVD") for m in (Modality.ECG, Modality.EEG)]
        got = derive_vectors(_one_chunk(tables), manifest, "ABCD", ["DM", "CVD"])
        assert list(got) == pairs
        for (o, m), v in got.items():
            (alone,) = derive_vectors({m: [tables[m]]}, manifest, "ABCD", [o]).values()
            assert (v.n_positive, v.n_negative) == (alone.n_positive, alone.n_negative)
            for name in ("vector", "mu_positive", "mu_negative"):
                assert getattr(v, name).tolist() == getattr(alone, name).tolist()

    def test_matches_per_row_sum(self, tmp_path):
        """Oracle: the centroids equal a per-row float64 sum taken over the
        training subjects' rows in table order."""
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
        (dv,) = derive_vectors({Modality.EEG: [(ids, X)]}, manifest, train, ["CVD"]).values()
        labels = manifest.outcome_labels("CVD")
        sums = {0: np.zeros(7), 1: np.zeros(7)}
        rows = {0: 0, 1: 0}
        for sid, x in zip(ids, X):
            if sid in train and labels.get(sid) is not None:
                sums[labels[sid]] += np.asarray(x, dtype=np.float64)
                rows[labels[sid]] += 1
        np.testing.assert_array_equal(dv.mu_positive, sums[1] / rows[1])
        np.testing.assert_array_equal(dv.mu_negative, sums[0] / rows[0])
        assert (dv.n_positive, dv.n_negative) == (2, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_block_sums_add_like_one_sum(self, tmp_path, d, block):
        """A table cut into chunks of at most ``block`` rows, some of them
        empty, gives the centroid bits of the table in one chunk, at d = 1
        too; float64 rows of mixed scale show any other order of addition."""
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1,0", "B,61,0,26,,,0,1", "C,62,1,27,,,0,", "D,63,0,28,,,1,0"],
                             outcomes="CVD,DM")
        rng = np.random.default_rng(d * 10 + block)
        ids, X = _interleaved(rng, {"A": 19, "B": 8, "C": 27, "D": 3, "Z": 3}, d)
        X = X * 10.0 ** rng.uniform(-6.0, 6.0, size=(X.shape[0], 1))
        cuts = np.sort(np.concatenate([np.arange(0, ids.shape[0], block), rng.integers(0, ids.shape[0] + 1, 4)]))
        chunks = [(ids[a:b], X[a:b]) for a, b in zip([0, *cuts], [*cuts, ids.shape[0]])]
        assert any(len(c[0]) == 0 for c in chunks)
        args = (manifest, "ABCD", ["CVD", "DM"])
        whole = derive_vectors({Modality.EEG: [(ids, X)]}, *args)
        got = derive_vectors({Modality.EEG: iter(chunks)}, *args)
        assert [(v.n_positive, v.n_negative) for v in got.values()] == [(2, 2), (1, 2)]
        assert list(got) == list(whole)
        for g, w in zip(got.values(), whole.values()):
            for name in ("vector", "mu_positive", "mu_negative"):
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes()


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
        return manifest, {("CVD", Modality.EEG): dv}, tables

    def test_scores_and_membership(self, tmp_path):
        manifest, vectors, tables = self._setup(tmp_path)
        scores = score_cohort(_one_chunk(tables), vectors, manifest)
        # C has no EEG embeddings, so no row for the EEG vector
        assert set(scores) == {("A", "CVD", Modality.EEG), ("B", "CVD", Modality.EEG)}
        assert scores["A", "CVD", Modality.EEG] == (pytest.approx(0.7), 2)
        assert scores["B", "CVD", Modality.EEG] == (pytest.approx(-0.8), 1)

    def test_pure_function(self, tmp_path):
        manifest, vectors, tables = self._setup(tmp_path)
        assert score_cohort(_one_chunk(tables), vectors, manifest) == score_cohort(_one_chunk(tables), vectors, manifest)

    def test_unlabelled_subjects_still_scored(self, tmp_path):
        """Scoring needs no labels; a subject missing the outcome label still
        gets a risk score for reporting."""
        manifest = _manifest(tmp_path, ["A,60,1,25,,,"])
        dv = derive_disease_vector([1.0, 0.0], [-1.0, 0.0], "CVD", Modality.EEG)
        scores = score_cohort({Modality.EEG: [_table([("A", [1.0, 0.0])])]}, {("CVD", Modality.EEG): dv}, manifest)
        assert scores == {("A", "CVD", Modality.EEG): (pytest.approx(1.0), 1)}

    def test_matches_brute_force_oracle(self, tmp_path):
        """Oracle: per subject and vector, the top-3 rule over one
        project_segment call per row, for every manifest subject with rows."""
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
        vectors = {
            (o, m): derive_disease_vector(rng.standard_normal(6), rng.standard_normal(6), o, m)
            for o, m in [
                ("CVD", Modality.EEG), ("DM", Modality.ECG), ("DM", Modality.EEG), ("CVD", Modality.ECG)
            ]
        }
        want = {}
        for sid in manifest.rows:
            for (outcome, modality), vec in vectors.items():
                ids, X = tables[modality]
                projections = [project_segment(x, vec) for row_sid, x in zip(ids, X) if row_sid == sid]
                if projections:
                    want[sid, outcome, modality] = subject_score(projections)
        got = score_cohort(_one_chunk(tables), vectors, manifest)
        assert got.keys() == want.keys()
        for key, (score, used) in want.items():
            assert got[key] == (pytest.approx(score, rel=1e-12, abs=1e-15), used)
        assert {key[0] for key in want} == {"A", "B", "C", "D", "E"}
        assert {used for _, used in want.values()} == {1, 2, 3}


    @pytest.mark.parametrize("seed", range(4))
    def test_chunking_moves_no_score_bit(self, tmp_path, seed):
        """A table cut into chunks of any sizes, some empty, scores to the
        same bits as the table in one chunk."""
        manifest = _manifest(tmp_path, ["A,60,1,25,,,1,0", "B,61,0,26,,,0,1", "C,62,1,27,,,1,"], outcomes="CVD,DM")
        rng = np.random.default_rng(seed)
        ids, X = _interleaved(rng, {"A": 7, "B": 2, "C": 11, "Z": 3}, 9)
        vectors = {
            (o, Modality.EEG): derive_disease_vector(rng.standard_normal(9), rng.standard_normal(9), o, Modality.EEG)
            for o in ("CVD", "DM")
        }
        cuts = np.sort(rng.integers(0, ids.shape[0] + 1, size=6))
        chunks = [(ids[a:b], X[a:b]) for a, b in zip([0, *cuts], [*cuts, ids.shape[0]])]
        whole = score_cohort({Modality.EEG: [(ids, X)]}, vectors, manifest)
        assert score_cohort({Modality.EEG: iter(chunks)}, vectors, manifest) == whole
        assert len(whole) == 6


class TestDiskFormats:
    def test_vector_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = {
            (outcome, modality): derive_disease_vector(
                rng.standard_normal(7), rng.standard_normal(7), outcome, modality, n_positive=3, n_negative=5
            )
            for outcome in ("CVD", "HTN") for modality in (Modality.RESP, Modality.EEG)
        }
        path = tmp_path / "vectors.csv"
        save_disease_vector(vectors, path)
        back = load_disease_vector(path)
        assert [(key, b.n_positive, b.n_negative) for key, b in back.items()] == [
            (key, v.n_positive, v.n_negative) for key, v in vectors.items()
        ]
        for b, v in zip(back.values(), vectors.values()):
            for name in ("vector", "mu_positive", "mu_negative"):
                assert getattr(b, name).tolist() == getattr(v, name).tolist()

    def test_vector_file_malformations(self, tmp_path):
        """A bad third line after a good row is refused, naming the file and the line."""
        path = tmp_path / "vectors.csv"
        good = {("CVD", Modality.ECG): derive_disease_vector([1.0, 0.0], [0.0, 0.0], "CVD", Modality.ECG)}
        for row, fragment in [
            ("CVD,EEG,1,1,1 0,0 0 0,0 0 0", "line 3: centroid dimensions disagree"),
            ("CVD,EEG,1,1,nan 0,0 0,0 0", "line 3: vector component 'nan' is not a decimal"),
            ("CVD,EEG,1,1,1e400 0,0 0,0 0", "line 3: disease vector vector has non-finite components"),
            ("CVD,EEG,1,1,1  0,0 0,0 0", "line 3: vector component '' is not a decimal"),
            ("CVD,EEG,1,1,0.6 0.6,0 0,0 0", "line 3: disease vector must be unit-norm"),
            ("CVD,EEG,0,1,1 0,0 0,0 0", "line 3: both classes"),
            ("CVD,EEG,1,+1,1 0,0 0,0 0", "line 3: n_negative '+1' is not a non-negative integer"),
            (",EEG,1,1,1 0,0 0,0 0", "line 3: outcome '' is empty"),
            ("CVD ,EEG,1,1,1 0,0 0,0 0", "line 3: outcome 'CVD ' is empty or padded"),
            ("CVD,ECG,1,1,1 0,0 0,0 0", "line 3 repeats the row for CVD, ECG"),
            ("DM,ECG,1,1,1,0,0", "line 3: vector has 1 components where the CVD, ECG vector has 2"),
            ("CVD,EEG,1,1,1 0,0 0", "line 3 has 6 cells, header has 7"),
            ("", "line 3 has 1 cells"),
        ]:
            save_disease_vector(good, path)
            with path.open("a") as fh:
                fh.write(row + "\n")
            with pytest.raises(FormatError, match=re.escape(f"{path}: {fragment}")):
                load_disease_vector(path)

    def test_vector_writer_refuses_a_cell_its_reader_would_split(self, tmp_path):
        dv = derive_disease_vector([1.0, 0.0], [0.0, 0.0], "CVD", Modality.ECG)
        path = tmp_path / "vectors.csv"
        with pytest.raises(DataError, match="'A,B'"):
            save_disease_vector({("CVD", Modality.ECG): dv, ("A,B", Modality.ECG): dv}, path)
        assert not path.exists()

    def test_scores_round_trip_and_order(self, tmp_path):
        scores = {
            ("B", "CVD", Modality.EEG): (-0.25, 3),
            ("A", "CVD", Modality.EEG): (0.5, 1),
            ("A", "CVD", Modality.ECG): (0.125, 2),
            ("A", "AF", Modality.RESP): (0.75, 3),
        }
        path = tmp_path / "scores.csv"
        save_scores(scores, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id,outcome,modality,score,n_segments_used"
        assert lines[1] == "A,AF,RESP,0.75,3"
        back = load_scores(path)
        assert list(back.items()) == [
            (("A", "AF", Modality.RESP), 0.75),
            (("A", "CVD", Modality.ECG), 0.125),
            (("A", "CVD", Modality.EEG), 0.5),
            (("B", "CVD", Modality.EEG), -0.25),
        ]

    def test_scores_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("nope\n")
        with pytest.raises(FormatError):
            load_scores(path)

    @pytest.mark.parametrize("row,fragment", [
        ("A,CVD ,ECG,0.25,2", "outcome 'CVD ' is empty or padded"),
        ("A,,ECG,0.25,2", "outcome '' is empty"),
        ("A\t,CVD,ECG,0.25,2", "subject id 'A\\t' is empty or padded"),
        ("A/B,CVD,ECG,0.25,2", "subject id 'A/B' is empty or padded, or holds"),
    ])
    def test_scores_names_follow_the_name_rule(self, tmp_path, row, fragment):
        """Subject ids and outcomes are names (``cohort.check_name``), as in
        the manifest they came from."""
        path = tmp_path / "scores.csv"
        save_scores({("A", "CVD", Modality.EEG): (0.5, 1)}, path)
        with path.open("a") as fh:
            fh.write(row + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 3: {fragment}")):
            load_scores(path)

    def test_scores_repeated_row_refused(self, tmp_path):
        path = tmp_path / "scores.csv"
        save_scores({("A", "CVD", Modality.ECG): (0.5, 1), ("A", "CVD", Modality.EEG): (0.5, 1)}, path)
        with path.open("a") as fh:
            fh.write("A,CVD,ECG,0.25,2\n")
        with pytest.raises(FormatError, match="line 4 repeats the row for A, CVD, ECG"):
            load_scores(path)

    @pytest.mark.parametrize("cell", ["ecg", " ECG", "ECG ", "Ecg", "ECG1", ""])
    def test_scores_modality_must_be_exact(self, tmp_path, cell):
        """A table psgp wrote holds the modality's exact name; a user's
        spelling (``ecg``) is for flags and config values only."""
        path = tmp_path / "scores.csv"
        save_scores({("A", "CVD", Modality.EEG): (0.5, 1)}, path)
        with path.open("a") as fh:
            fh.write(f"B,CVD,{cell},0.25,2\n")
        with pytest.raises(FormatError, match=f"line 3: unknown modality name {cell!r}"):
            load_scores(path)

    @pytest.mark.parametrize("cell", ["ecg", " ECG", "ECG ", "Ecg", ""])
    def test_vector_modality_must_be_exact(self, tmp_path, cell):
        dv = derive_disease_vector(np.array([1.0, 0.0]), np.array([0.0, 1.0]), "CVD", Modality.ECG)
        path = tmp_path / "vectors.csv"
        save_disease_vector({("CVD", Modality.ECG): dv}, path)
        path.write_text(path.read_text().replace(",ECG,", f",{cell},"))
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 2: unknown modality name {cell!r}")):
            load_disease_vector(path)
