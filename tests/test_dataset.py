import dataclasses
import json
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfuse.config import KEYS
from mmfuse.dataset import (
    CATEGORIES,
    FilterReason,
    FilterRuleSet,
    LabeledExample,
    TweetRecord,
    WorkerAnnotation,
    build_splits,
    class_distribution,
    export_corpus,
    filter_tweet,
    gate_image_by_text_probability,
    import_corpus,
    keyword_hate_rates,
    label_corpus,
)

FIXTURES = Path(__file__).parent / "fixtures"


def make_record(ident="t1", text="a perfectly fine tweet", **kw):
    kw.setdefault("image_ref", "img/x.jpg")
    return TweetRecord(id=ident, tweet_text=text, **kw)


def ann(category, duration):
    return WorkerAnnotation("w", category, duration)


def make_example(ident, hate):
    category = "Racist" if hate else "NotHate"
    record = make_record(ident, annotations=[ann(category, 10.0)] * 3)
    return label_corpus([record])[0][0]


class TestImportExport:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        records, diagnostics = import_corpus(path)
        assert records == [] and diagnostics == []

    def test_truncated_line_reported_with_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [make_record(f"t{i}").to_json() for i in range(3)]
        lines.append(make_record("t3").to_json()[:25])
        path.write_text("\n".join(lines) + "\n")
        records, diagnostics = import_corpus(path)
        assert len(records) == 3
        assert len(diagnostics) == 1
        assert diagnostics[0][0] == 4
        assert "line 4" in diagnostics[0][1]

    def test_duplicate_ids_reported(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(make_record("dup").to_json() + "\n" + make_record("dup").to_json() + "\n")
        records, diagnostics = import_corpus(path)
        assert len(records) == 1
        assert "duplicate" in diagnostics[0][1]

    def test_round_trip(self, tmp_path):
        records = [
            make_record("a", "first tweet text here", annotations=[ann("Racist", 5.0)]),
            make_record("b", "second tweet over here", is_retweet=True,
                        image_text="inner", image_text_probability=0.5),
        ]
        path = tmp_path / "c.jsonl"
        export_corpus(records, path)
        loaded, diagnostics = import_corpus(path)
        assert diagnostics == []
        assert loaded == records

    def test_diagnostics_and_records_of_a_faulty_corpus(self, tmp_path):
        votes = (b'[{"worker_id": "w0", "category": "Racist", "duration_seconds": 10.0}, '
                 b'{"worker_id": "w1", "category": "NotHate", "duration_seconds": 10.0}]')

        def line(ident, annotations=votes):
            return (b'{"id": "%s", "tweet_text": "tweet %s", "image_ref": "%s.npy#0", '
                    b'"annotations": %s}' % (ident, ident, ident, annotations))

        def vote(worker, category, duration):
            return b'[{"worker_id": %s, "category": "%s", "duration_seconds": %s}]' % (
                worker, category, duration)

        path = tmp_path / "faulty.jsonl"
        path.write_bytes(b"\n".join([
            line(b"a"),
            b'{"id": "b", "tweet_text": ',
            b"\xff" + line(b"c")[1:],
            b"",
            line(b"d", vote(b'"w0"', b"Spam", b"10.0")),
            line(b"e", vote(b'"w0"', b"Racist", b"-1.0")),
            line(b"f", vote(b'"w0"', b"Racist", b'"10"')),
            line(b"g", vote(b'["w", 0]', b"NotHate", b"4.0")[:-1] + b", " + votes[1:]),
            b'{"tweet_text": "no id", "annotations": []}',
            line(b"a", votes),
            b"   ",
            line(b"h"),  # the last line, without a newline
        ]))
        records, diagnostics = import_corpus(path)
        assert diagnostics == [
            (2, "line 2: Expecting value: line 2 column 1 (char 27)"),
            (3, "line 3: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (5, "line 5: unknown category 'Spam'"),
            (6, "line 6: duration_seconds must be non-negative"),
            (9, "line 9: 'id'"),
            (10, "line 10: duplicate id 'a'"),
        ]
        pair = [WorkerAnnotation("w0", "Racist", 10.0), WorkerAnnotation("w1", "NotHate", 10.0)]

        def record(ident, annotations):
            return TweetRecord(ident, f"tweet {ident}", image_ref=f"{ident}.npy#0",
                               annotations=annotations)

        assert records == [
            record("a", pair),
            record("f", [WorkerAnnotation("w0", "Racist", 10.0)]),
            record("g", [WorkerAnnotation(["w", 0], "NotHate", 4.0), *pair]),
            record("h", pair),
        ]
        assert type(records[1].annotations[0].duration_seconds) is float  # read from "10"

    def test_missing_file_raises(self, tmp_path):
        from mmfuse.dataset import CorpusError

        with pytest.raises(CorpusError):
            import_corpus(tmp_path / "nope.jsonl")


record_lists = st.lists(
    st.builds(
        TweetRecord,
        id=st.text(min_size=1, max_size=8),
        tweet_text=st.text(max_size=30),
        is_retweet=st.booleans(),
        image_ref=st.none() | st.text(max_size=12),
        image_text=st.text(max_size=12),
        image_text_probability=st.none() | st.floats(0, 1),
        annotations=st.lists(
            st.builds(
                WorkerAnnotation, st.text(max_size=4), st.sampled_from(CATEGORIES),
                st.floats(0, 1e6),
            ),
            max_size=4,
        ),
    ),
    max_size=6,
    unique_by=lambda r: r.id,
)


awkward_text = st.text(
    alphabet=st.sampled_from(["a", " ", "é", "字", '"', "\\", "\x00", "\n", "\x7f", "\U0001f600"])
    | st.characters(),
    max_size=10,
)


@st.composite
def shared_vote_records(draw):
    """Records whose vote lists come from a small pool, so lists and votes repeat.

    A record takes a pool list itself or a copy holding the same vote objects.
    Durations and worker ids include values that ``==`` merges but JSON does
    not: 0.0 and -0.0, 1 and 1.0, 1, 1.0, true and "1".
    """
    vote = st.builds(
        WorkerAnnotation,
        st.sampled_from([1, 1.0, True, "1"]) | awkward_text,
        st.sampled_from(["NotHate", "Racist"]),
        st.sampled_from([0.0, -0.0, 1, 1.0]),
    )
    pool = draw(st.lists(st.lists(vote, max_size=2), min_size=2, max_size=4))
    records = []
    for ident in draw(st.lists(awkward_text.filter(bool), min_size=2, max_size=8, unique=True)):
        annotations = pool[draw(st.integers(0, len(pool) - 1))]
        records.append(TweetRecord(
            id=ident,
            tweet_text=draw(awkward_text),
            is_retweet=draw(st.booleans()),
            image_ref=draw(st.none() | awkward_text),
            image_text=draw(awkward_text),
            image_text_probability=draw(st.sampled_from([None, 0.0, 0, 1]) | st.floats(0, 1)),
            annotations=annotations if draw(st.booleans()) else list(annotations),
        ))
    return records


def json_lines(records, duration=lambda d: d):
    """``json.dumps(..., sort_keys=True)`` of each record's fields, one line each, as UTF-8."""
    return "".join(
        json.dumps({
            "id": r.id, "tweet_text": r.tweet_text, "is_retweet": r.is_retweet,
            "image_ref": r.image_ref, "image_text": r.image_text,
            "image_text_probability": r.image_text_probability,
            "annotations": [
                {"worker_id": a.worker_id, "category": a.category,
                 "duration_seconds": duration(a.duration_seconds)}
                for a in r.annotations
            ],
        }, sort_keys=True) + "\n"
        for r in records
    ).encode("utf-8")


class TestJsonLines:
    @given(record_lists)
    @settings(max_examples=100, deadline=None)
    def test_to_json_is_json_dumps_sorted(self, batch):
        for r in batch:
            obj = {
                "id": r.id, "tweet_text": r.tweet_text, "is_retweet": r.is_retweet,
                "image_ref": r.image_ref, "image_text": r.image_text,
                "image_text_probability": r.image_text_probability,
                "annotations": [
                    {"worker_id": a.worker_id, "category": a.category,
                     "duration_seconds": a.duration_seconds}
                    for a in r.annotations
                ],
            }
            assert r.to_json() == json.dumps(obj, sort_keys=True)

    @given(record_lists)
    @settings(max_examples=100, deadline=None)
    def test_export_of_import_gives_the_same_bytes(self, tmp_path_factory, batch):
        folder = tmp_path_factory.mktemp("jsonl")
        export_corpus(batch, folder / "a.jsonl")
        loaded, diagnostics = import_corpus(folder / "a.jsonl")
        assert diagnostics == [] and loaded == batch
        export_corpus(loaded, folder / "b.jsonl")
        assert (folder / "b.jsonl").read_bytes() == (folder / "a.jsonl").read_bytes()

    @given(shared_vote_records())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_round_trip_bytes_with_shared_and_signed_votes(self, tmp_path_factory, batch):
        folder = tmp_path_factory.mktemp("shared")
        export_corpus(batch, folder / "a.jsonl")
        assert (folder / "a.jsonl").read_bytes() == json_lines(batch)
        loaded, diagnostics = import_corpus(folder / "a.jsonl")
        assert diagnostics == []
        export_corpus(loaded, folder / "b.jsonl")
        # an import reads every duration as a float, so 1 comes back as 1.0
        assert (folder / "b.jsonl").read_bytes() == json_lines(batch, duration=float)
        again, _ = import_corpus(folder / "b.jsonl")
        export_corpus(again, folder / "c.jsonl")
        assert (folder / "c.jsonl").read_bytes() == (folder / "b.jsonl").read_bytes()

    def test_import_shares_only_votes_written_alike(self, tmp_path):
        written = [("w", 10.0), ("w", 10.0), (1, 10.0), (1.0, 10.0), (True, 10.0), ("1", 10.0),
                   ("w", 0.0), ("w", -0.0), (["w"], 10.0), (["w"], 10.0)]
        path = tmp_path / "c.jsonl"
        records = [make_record(f"r{i}", annotations=[WorkerAnnotation(w, "Racist", d)])
                   for i, (w, d) in enumerate(written)]
        export_corpus(records, path)
        assert path.read_bytes() == json_lines(records)
        votes = [r.annotations[0] for r in import_corpus(path)[0]]
        assert votes[0] is votes[1]
        assert len({id(v) for v in votes}) == len(votes) - 1
        export_corpus(import_corpus(path)[0], tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == path.read_bytes()

    def test_alternating_vote_lists_share_per_first_category(self, tmp_path):
        # as synth writes a split: one list per label, records in random label order
        lists = {"NotHate": [WorkerAnnotation(f"s{w}", "NotHate", 10.0) for w in range(3)],
                 "Racist": [WorkerAnnotation(f"s{w}", "Racist", 10.0) for w in range(3)],
                 "other": [WorkerAnnotation("s0", "Racist", 9.5)]}
        order = ["NotHate", "Racist", "Racist", "NotHate", "other", "Racist", "NotHate"]
        path = tmp_path / "c.jsonl"
        export_corpus([make_record(f"r{i}", annotations=list(lists[k]))
                       for i, k in enumerate(order)], path)
        loaded = import_corpus(path)[0]
        first = {}
        for key, record in zip(order, loaded):
            assert record.annotations == lists[key]
            shared = first.setdefault(key, record.annotations)
            # "other" takes Racist's slot, so r5 builds its votes again
            assert all(map(operator.is_, shared, record.annotations)) == (record.id != "r5")
        export_corpus(loaded, tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == path.read_bytes()

    def test_fixture_corpus_round_trips_byte_for_byte(self, tmp_path):
        loaded, diagnostics = import_corpus(FIXTURES / "corpus.jsonl")
        assert diagnostics == []
        export_corpus(loaded, tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == (FIXTURES / "corpus.jsonl").read_bytes()


class TestFiltering:
    def test_fields_are_the_filtering_dataset_keys(self):
        names = [f.name for f in dataclasses.fields(FilterRuleSet)]
        assert names == ["min_word_count", "banned_terms", "keywords", "text_probability_threshold"]
        assert all(f"dataset.{name}" in KEYS for name in names)

    def test_retweet_discarded(self):
        record = make_record(is_retweet=True)
        assert filter_tweet(record, FilterRuleSet()) is FilterReason.RETWEET

    def test_short_text_discarded(self):
        record = make_record(text="two words")
        assert filter_tweet(record, FilterRuleSet()) is FilterReason.TOO_SHORT

    def test_clean_record_kept(self):
        record = make_record(text="five words of clean text")
        assert filter_tweet(record, FilterRuleSet()) is FilterReason.KEEP

    def test_banned_term_whole_token(self):
        rules = FilterRuleSet(banned_terms=("slurword",))
        assert filter_tweet(make_record(text="has slurword in it"), rules) is FilterReason.BANNED_TERM
        assert filter_tweet(make_record(text="has slurwords in it"), rules) is FilterReason.KEEP

    def test_missing_image_discarded(self):
        record = make_record(image_ref=None)
        assert filter_tweet(record, FilterRuleSet()) is FilterReason.NO_IMAGE


class TestGate:
    def test_zero_probability_kept(self):
        assert gate_image_by_text_probability(make_record(image_text_probability=0.0), 0.5) == "keep"

    def test_certain_text_discarded(self):
        assert gate_image_by_text_probability(make_record(image_text_probability=1.0), 0.5) == "discard"

    def test_absent_probability_ungated(self):
        assert gate_image_by_text_probability(make_record(), 0.5) == "ungated"

    def test_uniform_probabilities_discard_rate(self, rng):
        n = 4000
        records = [
            make_record(f"t{i}", image_text_probability=float(p)) for i, p in enumerate(rng.random(n))
        ]
        discarded = sum(
            1 for r in records if gate_image_by_text_probability(r, 0.77) == "discard"
        )
        assert discarded / n == pytest.approx(0.23, abs=0.03)


def label_one(annotations):
    """(hate, category, retained votes, binary tie) of one record, or None when it is unlabelable."""
    examples, unlabelable = label_corpus([make_record(annotations=annotations)])
    if unlabelable:
        return None
    ex = examples[0]
    return ex.hate, ex.category, sum(ex.vote_counts.values()), ex.binary_tie


_RANK = {cat: i for i, cat in enumerate(CATEGORIES)}


def two_pass_label_corpus(records, min_duration=3.0):
    """Reference: the labelling that aggregated the votes, then counted them a second time."""
    examples, unlabelable = [], []
    for record in records:
        if not record.annotations:
            raise ValueError("need at least one annotation")
        retained = [a for a in record.annotations if a.duration_seconds >= min_duration]
        if not retained:
            unlabelable.append(record.id)
            continue
        hate_votes = [a for a in retained if a.category != "NotHate"]
        not_hate = len(retained) - len(hate_votes)
        hate = len(hate_votes) > not_hate
        category = "NotHate"
        if hate:
            per_category = {}
            for a in hate_votes:
                per_category[a.category] = per_category.get(a.category, 0) + 1
            category = max(per_category.items(), key=lambda kv: (kv[1], -_RANK[kv[0]]))[0]
        counts = {cat: 0 for cat in CATEGORIES}
        for a in record.annotations:
            if a.duration_seconds >= min_duration:
                counts[a.category] += 1
        examples.append(LabeledExample(
            id=record.id, tweet_text=record.tweet_text, hate=hate, category=category,
            vote_counts=counts, binary_tie=len(hate_votes) == not_hate,
        ))
    return examples, unlabelable


votes = st.lists(
    st.builds(
        WorkerAnnotation,
        st.sampled_from(["w0", "w1"]),
        st.sampled_from(CATEGORIES),
        st.one_of(st.sampled_from([0.0, 2.999, 3.0, 10.0]), st.floats(0, 20)),
    ),
    min_size=1,
    max_size=7,
)


class TestAggregation:
    def test_hate_majority(self):
        result = label_one([ann("Racist", 10), ann("NotHate", 8), ann("Racist", 12)])
        assert result == (True, "Racist", 3, False)

    def test_nothate_majority(self):
        result = label_one([ann("NotHate", 5), ann("NotHate", 6), ann("Racist", 9)])
        assert result == (False, "NotHate", 3, False)

    def test_fast_hit_removed_then_category_tie(self):
        result = label_one([ann("Racist", 10), ann("Sexist", 10), ann("NotHate", 2)])
        assert result == (True, "Racist", 2, False)

    def test_binary_tie_resolves_to_nothate_flagged(self):
        result = label_one([ann("Racist", 10), ann("NotHate", 8), ann("Sexist", 2)])
        assert result == (False, "NotHate", 2, True)

    def test_all_fast_is_unlabelable(self):
        assert label_one([ann("Racist", 1.0), ann("NotHate", 2.0)]) is None

    def test_no_annotations_rejected(self):
        with pytest.raises(ValueError):
            label_one([])

    def test_category_tie_break_order(self):
        result = label_one(
            [ann("OtherHate", 10), ann("Homophobic", 10), ann("Homophobic", 10), ann("OtherHate", 10)]
        )
        assert result[1] == "Homophobic"

    @given(st.lists(votes, min_size=1, max_size=8), st.sampled_from([3.0, 0.0, 5.0, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_two_passes(self, annotation_lists, min_duration):
        records = [make_record(f"r{i}", annotations=a) for i, a in enumerate(annotation_lists)]
        got = label_corpus(records, min_duration)
        want = two_pass_label_corpus(records, min_duration)
        assert got == want
        assert [list(ex.vote_counts.items()) for ex in got[0]] == [
            list(ex.vote_counts.items()) for ex in want[0]
        ]


class TestSplits:
    def test_balanced_split_arithmetic(self):
        examples = [make_example(f"h{i}", True) for i in range(100)]
        examples += [make_example(f"n{i}", False) for i in range(100)]
        build_splits(examples, val_size=20, test_size=40, seed=5)
        for split, size in (("val", 20), ("test", 40), ("train", 140)):
            chosen = [ex for ex in examples if ex.split == split]
            assert len(chosen) == size
            if split != "train":
                assert sum(ex.hate for ex in chosen) == size // 2

    def test_same_seed_same_assignment(self):
        def assign():
            examples = [make_example(f"h{i}", True) for i in range(30)]
            examples += [make_example(f"n{i}", False) for i in range(30)]
            build_splits(examples, val_size=8, test_size=12, seed=7)
            return [(ex.id, ex.split) for ex in examples]

        assert assign() == assign()

    def test_reference_scale_sizes_accepted(self):
        examples = [make_example(f"h{i}", True) for i in range(8000)]
        examples += [make_example(f"n{i}", False) for i in range(8000)]
        build_splits(examples, val_size=5000, test_size=10000, seed=0)
        assert sum(ex.split == "val" for ex in examples) == 5000
        assert sum(ex.split == "test" for ex in examples) == 10000

    def test_insufficient_counts_rejected(self):
        examples = [make_example("h0", True), make_example("n0", False)]
        with pytest.raises(ValueError, match="insufficient"):
            build_splits(examples, val_size=2, test_size=2, seed=0)

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_splits([], val_size=3, test_size=2, seed=0)


class TestKeywordRates:
    def test_absent_keyword_null_fraction(self):
        examples = [make_example("a", True)]
        rows = keyword_hate_rates(examples, ("missingterm",))
        assert rows == [("missingterm", 0, 0, None)]

    def test_half_fraction(self):
        examples = [make_example(f"e{i}", i < 2) for i in range(4)]
        for ex in examples:
            ex.tweet_text = "something with termx inside"
        rows = keyword_hate_rates(examples, ("termx",))
        assert rows == [("termx", 2, 2, 0.5)]

    def test_matching_is_whole_token_and_case_insensitive(self):
        example = make_example("a", True)
        example.tweet_text = "Contains TermX, and termxy too"
        rows = dict((r[0], r[1:]) for r in keyword_hate_rates([example], ("termx", "termxy")))
        assert rows["termx"] == (1, 0, 1.0)
        assert rows["termxy"] == (1, 0, 1.0)


class TestClassDistribution:
    def test_published_counts_reproduce_percentages(self):
        counts = {
            "NotHate": 112845,
            "Racist": 11925,
            "Sexist": 3495,
            "Homophobic": 3870,
            "ReligionAttack": 163,
            "OtherHate": 5811,
        }
        total = sum(counts.values())
        percentages = class_distribution(counts)
        for cat, count in counts.items():
            assert percentages[cat] == pytest.approx(100.0 * count / total, abs=1e-9)
        assert sum(percentages.values()) == pytest.approx(100.0, abs=1e-9)
        # the binary split dominates: roughly four fifths not-hate
        assert percentages["NotHate"] == pytest.approx(81.7, abs=0.05)
        assert percentages["Racist"] > percentages["OtherHate"] > percentages["Homophobic"]
        assert percentages["ReligionAttack"] < 0.2

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            class_distribution({})


@pytest.fixture(scope="module")
def corpus():
    records, diagnostics = import_corpus(FIXTURES / "corpus.jsonl")
    assert diagnostics == []
    assert len(records) == 60
    return records


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "expected.json").read_text())


class TestFixturePipeline:
    """The bundled 60-record corpus against its frozen expected outputs."""

    def test_filter_decisions(self, corpus, expected):
        rules = FilterRuleSet(banned_terms=tuple(expected["banned_terms"]))
        for record in corpus:
            want = expected["filter"].get(record.id, "keep")
            assert filter_tweet(record, rules).value == want, record.id

    def test_gate_decisions(self, corpus, expected):
        by_id = {r.id: r for r in corpus}
        for ident, want in expected["gate"].items():
            got = gate_image_by_text_probability(by_id[ident], expected["gate_threshold"])
            assert got == want, ident

    def test_labels_and_unlabelable(self, corpus, expected):
        rules = FilterRuleSet(banned_terms=tuple(expected["banned_terms"]))
        kept = [
            r for r in corpus
            if filter_tweet(r, rules) is FilterReason.KEEP
            and gate_image_by_text_probability(r, expected["gate_threshold"]) != "discard"
        ]
        examples, unlabelable = label_corpus(kept)
        assert unlabelable == expected["unlabelable"]
        assert len(examples) == len(expected["labels"])
        for ex in examples:
            want = expected["labels"][ex.id]
            assert ex.hate == want["hate"], ex.id
            assert ex.category == want["category"], ex.id
            assert ex.binary_tie == want["tie"], ex.id

    def test_split_assignment(self, corpus, expected):
        rules = FilterRuleSet(banned_terms=tuple(expected["banned_terms"]))
        kept = [
            r for r in corpus
            if filter_tweet(r, rules) is FilterReason.KEEP
            and gate_image_by_text_probability(r, expected["gate_threshold"]) != "discard"
        ]
        examples, _ = label_corpus(kept)
        build_splits(examples, expected["val_size"], expected["test_size"], expected["split_seed"])
        for split in ("val", "test", "train"):
            got = sorted(ex.id for ex in examples if ex.split == split)
            assert got == expected["splits"][split], split

    def test_keyword_rates(self, corpus, expected):
        rules = FilterRuleSet(banned_terms=tuple(expected["banned_terms"]))
        kept = [
            r for r in corpus
            if filter_tweet(r, rules) is FilterReason.KEEP
            and gate_image_by_text_probability(r, expected["gate_threshold"]) != "discard"
        ]
        examples, _ = label_corpus(kept)
        rows = keyword_hate_rates(examples, ("termx", "termy", "termz"))
        want = [tuple(row) for row in expected["keyword_rows"]]
        assert rows == want
