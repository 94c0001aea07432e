import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import toyset
from flowopt.errors import ArtifactIOError
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
    assert s.stats.backbone == 3
    assert s.stats.rings == 1
    assert s.stats.side_groups == 1
    assert s.stats.branch_depth == 2


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


def blake2b_features(tokens) -> np.ndarray:
    """The bitset formula itself: each n-gram (n in 1..3) hashed on every use."""
    bits = np.zeros(toyset.FEATURE_BITS, dtype=bool)
    for n in (1, 2, 3):
        for i in range(len(tokens) - n + 1):
            gram = "\x1f".join(tokens[i:i + n])
            h = hashlib.blake2b(gram.encode(), digest_size=8).digest()
            bits[int.from_bytes(h, "little") % toyset.FEATURE_BITS] = True
    return bits


def test_features_shape_and_determinism():
    s = toyset.decode(("A", "B", "R"))
    f1, f2 = s.features, s.features
    assert f1.shape == (toyset.FEATURE_BITS,) and f1.dtype == np.bool_
    assert np.array_equal(f1, f2)
    # A, B, R, A-B, B-R and A-B-R, hashed by hand with blake2b (8 bytes,
    # little-endian, mod 512).
    assert set(np.flatnonzero(f1)) == {282, 255, 191, 489, 77, 179}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(toyset.VOCAB), max_size=70))
def test_features_memo_equals_blake2b_formula(tokens):
    tokens = tuple(tokens)
    want = blake2b_features(tokens)
    assert np.array_equal(toyset._features(tokens), want)
    assert np.array_equal(toyset._features(tokens), want)  # memo warm
    canon = toyset.decode(tokens).canonical_tokens
    assert np.array_equal(toyset.decode(tokens).features, blake2b_features(canon))


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


@pytest.mark.parametrize("p1, p2", [("nan", "2.0"), ("0.5", "nan"), ("inf", "2.0"),
                                    ("0.5", "-inf")])
def test_read_split_rejects_non_finite_properties(tmp_path, p1, p2):
    path = tmp_path / "train.tsv"
    path.write_text(f"A B\t0.5\t2.0\nA R i\t{p1}\t{p2}\n")
    with pytest.raises(ArtifactIOError, match=r"train\.tsv:2: non-finite"):
        toyset.read_split(path)


# SHA-256 of the three TSVs ``write_dataset(generate_dataset(7, 3000, 3, 14))``
# writes: the toy-default dataset every recorded run trains and evaluates on.
RECORDED_DATASET_SHA256 = {
    "train": "bfe74e64119e11980cf9ef19f4d34f29ad6f365f8977579e169174aa2ed044b2",
    "val": "73b8312fae0a690a8edfe00dfe6e5be8e5e40c9af64ef45cf056e7d6fbc10c78",
    "test": "6295f4b3f3bd6f2046f9ef51ff56dc5568a3a55016424510b72d71a5c330df29",
}


def test_toy_default_dataset_matches_recorded_bytes(tmp_path):
    toyset.write_dataset(toyset.generate_dataset(7, 3000, 3, 14), tmp_path)
    got = {which: hashlib.sha256((tmp_path / f"{which}.tsv").read_bytes()).hexdigest()
           for which in RECORDED_DATASET_SHA256}
    assert got == RECORDED_DATASET_SHA256


# -- reference copies of the two-pass generator and serializer --------------
# The walk drew every scalar as a 0-d array and picked tokens with
# ``Generator.choice``; each structure was decoded once to build it and once
# more for its skeleton key, and the skeleton was serialized from a stripped
# copy of the tree. The one-pass code must reproduce all of it exactly.

def reference_prune(chain) -> list:
    """Drop every empty branch, deepest first, in place."""
    for unit in chain:
        for b in unit.branches:
            reference_prune(b)
        unit.branches = [b for b in unit.branches if b]
    return chain


def reference_serialize(chain) -> list:
    out = []
    for unit in chain:
        out.append(unit.atom)
        out.extend([toyset.RING] * unit.rings)
        out.extend(sorted(unit.sides))
        for b in unit.branches:
            out.append(toyset.OPEN)
            out.extend(reference_serialize(b))
            out.append(toyset.CLOSE)
    return out


def reference_strip_sides(chain) -> list:
    out = []
    for unit in chain:
        u = toyset._Unit(unit.atom, rings=unit.rings)
        u.branches = [s for s in (reference_strip_sides(b) for b in unit.branches) if s]
        out.append(u)
    return out


def reference_stats(canon, skel) -> toyset.Stats:
    """The stats counted on the serialized tokens rather than the tree."""
    depth = branch_depth = 0
    for tok in canon:
        depth += (tok == toyset.OPEN) - (tok == toyset.CLOSE)
        branch_depth = max(branch_depth, depth)
    return toyset.Stats(length=len(canon),
                        backbone=sum(tok in toyset.BACKBONE for tok in canon),
                        rings=canon.count(toyset.RING),
                        side_groups=sum(tok in toyset.SIDE for tok in canon),
                        branch_depth=branch_depth, skeleton_length=len(skel))


def reference_decode(tokens) -> toyset.Structure:
    chain = reference_prune(toyset._parse(tokens))
    canon = reference_serialize(chain)
    skel = reference_serialize(reference_strip_sides(chain))
    return toyset.Structure(
        canonical_key=" ".join(canon) if canon else toyset.EMPTY_KEY,
        skeleton_key=" ".join(skel) if skel else toyset.EMPTY_KEY,
        canonical_tokens=tuple(canon),
        stats=reference_stats(canon, skel),
    )


def reference_random_chain(gen, budget, depth) -> list:
    tokens = []
    n_units = int(gen.integers(1, max(2, budget // 2 + 1), size=()))
    for _ in range(n_units):
        if len(tokens) >= budget:
            break
        tokens.append(toyset.BACKBONE[int(gen.choice(len(toyset.BACKBONE)))])
        r = gen.uniform(0.0, 1.0, ())
        if r < 0.18:
            tokens.append(toyset.RING)
        if gen.uniform(0.0, 1.0, ()) < 0.35:
            tokens.append(toyset.SIDE[int(gen.choice(len(toyset.SIDE)))])
        if depth < 3 and gen.uniform(0.0, 1.0, ()) < 0.15 and budget - len(tokens) > 3:
            sub = reference_random_chain(gen, (budget - len(tokens)) // 2, depth + 1)
            tokens += [toyset.OPEN] + sub + [toyset.CLOSE]
    return tokens


def reference_generate_dataset(seed, count, min_len, max_len) -> toyset.Dataset:
    rng = Rng(seed).split("toyset")
    entries = []
    for i in range(count):
        r = rng.split(i)
        budget = int(r.gen.integers(min_len, max_len + 1, size=()))
        s = reference_decode(reference_random_chain(r.gen, budget, 0)[:toyset.MAX_LEN])
        entries.append((s.canonical_tokens, toyset.oracle_properties(s)))
    groups: dict = {}
    for i, (tokens, _) in enumerate(entries):
        groups.setdefault(reference_decode(tokens).skeleton_key, []).append(i)
    keys = sorted(groups, key=lambda k: hashlib.blake2b(k.encode(), digest_size=8).hexdigest())
    n = len(keys)
    n_train = round(0.81 * n)
    n_val = round(0.09 * n)
    train_idx, val_idx, test_idx = [], [], []
    for j, k in enumerate(keys):
        bucket = train_idx if j < n_train else val_idx if j < n_train + n_val else test_idx
        bucket.extend(groups[k])
    return toyset.Dataset(entries=entries, train_idx=sorted(train_idx),
                          val_idx=sorted(val_idx), test_idx=sorted(test_idx))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(toyset.VOCAB), max_size=70))
def test_decode_equals_two_pass_reference(tokens):
    assert toyset.decode(tokens) == reference_decode(tokens)


@st.composite
def dataset_args(draw):
    max_len = draw(st.integers(0, toyset.MAX_LEN))
    return (draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 120)),
            draw(st.integers(0, max_len)), max_len)


@settings(max_examples=40, deadline=None)
@given(dataset_args())
def test_generate_dataset_equals_two_pass_reference(args):
    got, want = toyset.generate_dataset(*args), reference_generate_dataset(*args)
    assert got.entries == want.entries
    # The property bits, as well as float equality.
    assert ([(p.p1.hex(), p.p2.hex()) for _, p in got.entries]
            == [(p.p1.hex(), p.p2.hex()) for _, p in want.entries])
    assert (got.train_idx, got.val_idx, got.test_idx) == (want.train_idx, want.val_idx,
                                                           want.test_idx)
