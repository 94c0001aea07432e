import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import toyset
from flowopt.rng import Rng

token_lists = st.lists(st.sampled_from(toyset.VOCAB), max_size=40)


@settings(max_examples=300, deadline=None)
@given(token_lists)
def test_decode_is_total(tokens):
    s = toyset.decode(tokens)
    assert isinstance(s, toyset.Structure)
    p = toyset.oracle_properties(s)
    assert 0.0 <= p.p1 <= 1.0
    assert 1.0 <= p.p2 <= 10.0


@settings(max_examples=300, deadline=None)
@given(token_lists)
def test_canonicalization_is_idempotent(tokens):
    s = toyset.decode(tokens)
    again = toyset.decode(s.canonical_tokens)
    assert again == s


def test_empty_decode():
    s = toyset.decode(())
    assert s.canonical_key == toyset.EMPTY_KEY
    assert s.skeleton_key == toyset.EMPTY_KEY
    p = toyset.oracle_properties(s)
    assert p.p2 == 1.0


def test_side_token_order_is_canonical():
    a = toyset.decode(("A", "j", "i"))
    b = toyset.decode(("A", "i", "j"))
    assert a.canonical_key == b.canonical_key == "A i j"


def test_orphan_modifiers_dropped():
    # ring/side/branch tokens with no preceding backbone unit are ignored
    s = toyset.decode(("R", "i", "(", ")", "A"))
    assert s.canonical_key == "A"


def test_empty_branches_pruned():
    s = toyset.decode(("A", "(", ")", "B"))
    assert s.canonical_key == "A B"


def test_eos_truncates():
    s = toyset.decode(("A", toyset.EOS, "B"))
    assert s.canonical_key == "A"


def test_skeleton_strips_side_groups():
    s = toyset.decode(("A", "i", "R", "(", "B", "k", ")"))
    assert s.skeleton_key == "A R ( B )"


def test_structure_stats_counts():
    s = toyset.decode(("A", "R", "i", "(", "B", "(", "C", ")", ")"))
    stats = toyset.structure_stats(s)
    assert stats["backbone"] == 3
    assert stats["rings"] == 1
    assert stats["side_groups"] == 1
    assert stats["branch_depth"] == 2


def test_oracle_p2_floor_and_monotone_signal():
    flat = toyset.decode(tuple("AB"))
    deep = toyset.decode(("A", "(", "B", "(", "C", "(", "D", ")", ")", ")"))
    assert toyset.oracle_properties(flat).p2 < toyset.oracle_properties(deep).p2


@settings(max_examples=100, deadline=None)
@given(token_lists, token_lists)
def test_tanimoto_bounds_and_symmetry(t1, t2):
    a = toyset.decode(t1).features
    b = toyset.decode(t2).features
    sab = toyset.tanimoto(a, b)
    assert 0.0 <= sab <= 1.0
    assert sab == toyset.tanimoto(b, a)
    assert toyset.tanimoto(a, a) == 1.0


def test_features_shape_and_determinism():
    s = toyset.decode(("A", "B", "R"))
    f1, f2 = s.features, s.features
    assert f1.shape == (toyset.FEATURE_BITS // 8,) or f1.size * 8 >= toyset.FEATURE_BITS
    assert np.array_equal(f1, f2)


def test_generate_dataset_deterministic_and_split_sizes():
    d1 = toyset.generate_dataset(7, 400)
    d2 = toyset.generate_dataset(7, 400)
    assert d1.entries == d2.entries
    assert d1.train_idx == d2.train_idx
    n = len(d1.entries)
    assert len(d1.train_idx) + len(d1.val_idx) + len(d1.test_idx) == n
    assert len(d1.train_idx) > len(d1.test_idx) > 0
    assert len(d1.val_idx) > 0


def test_split_skeletons_disjoint():
    ds = toyset.generate_dataset(7, 600)
    keys = {}
    for which in ("train", "val", "test"):
        keys[which] = {toyset.decode(t).skeleton_key for t, _ in ds.subset(which)}
    assert not (keys["train"] & keys["val"])
    assert not (keys["train"] & keys["test"])
    assert not (keys["val"] & keys["test"])


def test_dataset_round_trip(tmp_path):
    ds = toyset.generate_dataset(3, 120)
    toyset.write_dataset(ds, tmp_path)
    for which in ("train", "val", "test"):
        back = toyset.read_split(tmp_path / f"{which}.tsv")
        orig = ds.subset(which)
        assert back == orig


def test_vocab_hash_stable():
    assert toyset.vocab_hash() == toyset.vocab_hash()
    assert len(toyset.vocab_hash()) == 16


def test_generate_rejects_bad_count():
    with pytest.raises(Exception):
        toyset.generate_dataset(1, 0)


def test_random_strings_all_valid_smoke():
    gen = Rng(99).gen
    n_vocab = len(toyset.VOCAB)
    for _ in range(2000):
        length = int(gen.integers(0, toyset.MAX_LEN))
        tokens = [toyset.VOCAB[i] for i in gen.integers(0, n_vocab, length)]
        s = toyset.decode(tokens)
        assert toyset.decode(s.canonical_tokens) == s
