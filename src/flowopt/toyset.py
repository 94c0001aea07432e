"""Synthetic molecular domain with a robust token grammar.

Every token string over the vocabulary decodes to a valid structure, the way
robust string representations of molecules guarantee syntactic validity by
construction. Structures are trees: a chain of backbone units, each of which
may carry ring markers, side-group tokens, and nested branches.

Decoding robustness rules (fixed):
  * PAD/BOS are skipped; EOS terminates the scan.
  * Backbone tokens append a unit at the current depth.
  * Ring markers and side-group tokens attach to the most recent backbone
    unit in the current branch; with no such unit they are ignored.
  * ``(`` opens a branch on the most recent unit (ignored if there is none);
    ``)`` closes the innermost open branch (ignored at depth 0); branches
    still open at end of input are auto-closed; empty branches are dropped.

Property oracles are exact analytic functions of the canonical structure:
``p1`` (maximize, in [0, 1]) rewards mid-length backbones with a balanced
side-group mix and a few rings; ``p2`` (minimize, in [1, 10]) charges for
branch depth, ring count, and overall length. The two deliberately conflict:
raising p1 requires structure that raises p2.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ArtifactIOError, ContractViolation
from .rng import Rng

PAD, BOS, EOS = "<pad>", "<bos>", "<eos>"
BACKBONE = tuple("ABCDEFGH")
RING = "R"
OPEN, CLOSE = "(", ")"
SIDE = tuple("ijklmnopqrstuvwxyz")  # 18 side-group tokens

VOCAB = (PAD, BOS, EOS) + BACKBONE + (RING, OPEN, CLOSE) + SIDE
TOKEN_ID = {t: i for i, t in enumerate(VOCAB)}
MAX_LEN = 64
FEATURE_BITS = 512

# The property orientation and ranges, which every other module reads from
# here: p1 is maximized over P1_BOUNDS and p2 minimized over P2_BOUNDS. A
# (p1, p2) point times PROPERTY_SIGNS has both properties maximized.
PROPERTY_SIGNS = (1, -1)
P1_BOUNDS = (0.0, 1.0)
P2_BOUNDS = (1.0, 10.0)

EMPTY_KEY = "∅"


def vocab_hash() -> str:
    return hashlib.blake2b(" ".join(VOCAB).encode(), digest_size=8).hexdigest()


@dataclass
class _Unit:
    atom: str
    rings: int = 0
    sides: list = field(default_factory=list)
    branches: list = field(default_factory=list)  # list of list[_Unit]


@dataclass(frozen=True)
class Properties:
    """Exact oracle values: p1 maximize in [0,1], p2 minimize in [1,10]."""

    p1: float
    p2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2])


class Stats(NamedTuple):
    """A structure's descriptor counts, which the oracle and the evaluation suite read."""

    length: int           # canonical tokens
    backbone: int         # backbone units, those in branches too
    rings: int
    side_groups: int
    branch_depth: int
    skeleton_length: int  # skeleton tokens


@dataclass(frozen=True)
class Structure:
    canonical_key: str
    skeleton_key: str
    canonical_tokens: tuple
    stats: Stats  # counted on the parse that ``decode`` made

    @property
    def features(self) -> np.ndarray:
        return _features(self.canonical_tokens)


def _parse(tokens) -> list:
    """Apply the robustness rules; returns the root chain of units, whose
    branches may be empty."""
    root: list = []
    stack = [root]
    for tok in tokens:
        if tok == EOS:
            break
        if tok in (PAD, BOS):
            continue
        if tok in TOKEN_ID:
            chain = stack[-1]
            if tok in BACKBONE:
                chain.append(_Unit(tok))
            elif tok == RING:
                if chain:
                    chain[-1].rings += 1
            elif tok == OPEN:
                if chain:
                    branch: list = []
                    chain[-1].branches.append(branch)
                    stack.append(branch)
            elif tok == CLOSE:
                if len(stack) > 1:
                    stack.pop()
            else:  # side group
                if chain:
                    chain[-1].sides.append(tok)
        else:
            raise ContractViolation(f"unknown token {tok!r}")
    return root


def _walk(chain, canon: list, skel: list, depth: int = 0) -> tuple:
    """Append the canonical and skeleton tokens of a parsed chain and count
    its backbone units, rings, side groups and deepest branch, in one pass.

    An empty branch is skipped, as if pruned: sub-branches hang only on a
    branch's own units, so a branch is empty exactly when it has no unit.
    The skeleton, the canonical form without side groups, keeps every branch.
    """
    nb, rings, sides, max_depth = len(chain), 0, 0, depth
    for unit in chain:
        head = [unit.atom] + [RING] * unit.rings
        canon.extend(head)
        canon.extend(sorted(unit.sides))
        skel.extend(head)
        rings += unit.rings
        sides += len(unit.sides)
        for b in unit.branches:
            if not b:
                continue
            canon.append(OPEN)
            skel.append(OPEN)
            b_nb, b_rings, b_sides, b_depth = _walk(b, canon, skel, depth + 1)
            canon.append(CLOSE)
            skel.append(CLOSE)
            nb += b_nb
            rings += b_rings
            sides += b_sides
            max_depth = max(max_depth, b_depth)
    return nb, rings, sides, max_depth


def decode(tokens) -> Structure:
    """Total decode: every token sequence yields a valid Structure.

    One parse of ``tokens`` and one walk of the tree give the canonical and
    skeleton tokens and the stats, so the oracle needs no parse of its own.
    """
    canon, skel = [], []
    nb, rings, sides, depth = _walk(_parse(tokens), canon, skel)
    return Structure(
        canonical_key=" ".join(canon) if canon else EMPTY_KEY,
        skeleton_key=" ".join(skel) if skel else EMPTY_KEY,
        canonical_tokens=tuple(canon),
        stats=Stats(length=len(canon), backbone=nb, rings=rings, side_groups=sides,
                    branch_depth=depth, skeleton_length=len(skel)),
    )


def oracle_properties(s: Structure) -> Properties:
    """Exact analytic property oracle; a pure function of the canonical key."""
    return properties_from_stats(s.stats)


def properties_from_stats(st: Stats) -> Properties:
    """The oracle's analytic formula on a structure's ``Stats``."""
    nb, rings, sides = st.backbone, st.rings, st.side_groups
    side_frac = sides / (sides + nb) if (sides + nb) > 0 else 0.0
    p1 = (0.5 * np.exp(-(((nb - 8) / 3.0) ** 2))
          + 0.3 * np.exp(-(((side_frac - 0.35) / 0.12) ** 2))
          + 0.2 * np.exp(-(((rings - 3) / 1.2) ** 2)))
    complexity = (0.35 * min(st.branch_depth / 4.0, 1.0)
                  + 0.35 * min(rings / 6.0, 1.0)
                  + 0.30 * min(st.length / 32.0, 1.0))
    p2 = 1.0 + 9.0 * min(complexity, 1.0)
    return Properties(p1=float(p1), p2=float(p2))


# N-gram -> bit index. The bit is a pure function of the n-gram, so one memo
# serves every caller, and the fixed vocabulary bounds its size.
_GRAM_BIT: dict = {}


def _features(tokens: tuple) -> np.ndarray:
    """N-gram (n in 1..3) presence bitset of width 512, blake2b-hashed.

    Collisions are accepted; this is the fingerprint analogue used for
    similarity and embedding projections.
    """
    idx = []
    for n in (1, 2, 3):
        for i in range(len(tokens) - n + 1):
            gram = tokens[i:i + n]
            bit = _GRAM_BIT.get(gram)
            if bit is None:
                h = hashlib.blake2b("\x1f".join(gram).encode(), digest_size=8).digest()
                bit = _GRAM_BIT[gram] = int.from_bytes(h, "little") % FEATURE_BITS
            idx.append(bit)
    bits = np.zeros(FEATURE_BITS, dtype=bool)
    bits[idx] = True
    return bits


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|A∩B| / |A∪B| over bitsets; 1.0 when both are empty."""
    if a.shape != b.shape:
        raise ContractViolation("bitset widths differ")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return np.count_nonzero(a & b) / union


# -- dataset generation ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    """Token sequences with oracle properties and a skeleton-based split.

    A dataset is not changed after it is built: work derived from it (the
    evaluation reference) is kept per dataset object, which hashes by identity.
    """

    entries: list  # list of (tokens tuple, Properties)
    train_idx: list
    val_idx: list
    test_idx: list

    def subset(self, which: str):
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[which]
        return [self.entries[i] for i in idx]


def _random_chain(gen: np.random.Generator, budget: int, depth: int) -> list:
    tokens = []
    n_units = int(gen.integers(1, max(2, budget // 2 + 1)))
    for _ in range(n_units):
        if len(tokens) >= budget:
            break
        tokens.append(BACKBONE[gen.integers(0, len(BACKBONE))])
        r = gen.random()
        if r < 0.18:
            tokens.append(RING)
        if gen.random() < 0.35:
            tokens.append(SIDE[gen.integers(0, len(SIDE))])
        if depth < 3 and gen.random() < 0.15 and budget - len(tokens) > 3:
            sub = _random_chain(gen, (budget - len(tokens)) // 2, depth + 1)
            tokens += [OPEN] + sub + [CLOSE]
    return tokens


def generate_dataset(seed: int, count: int, min_len: int = 4, max_len: int = 40) -> Dataset:
    """Draw ``count`` structures from the generative grammar walk.

    Deterministic per seed. Splits are by skeleton key so no skeleton
    appears in more than one split; skeleton groups are ordered by hash and
    allocated 81/9/10 (singletons fall wherever their hash lands).
    """
    if count < 1:
        raise ContractViolation("count must be >= 1")
    if not 0 <= min_len <= max_len:
        raise ContractViolation(f"need 0 <= min_len <= max_len, not {min_len} and {max_len}")
    rng = Rng(seed).split("toyset")
    entries = []
    groups: dict = {}
    for i in range(count):
        r = rng.split(i)
        budget = int(r.integers(min_len, max_len + 1))
        s = decode(_random_chain(r.gen, budget, 0)[:MAX_LEN])
        entries.append((s.canonical_tokens, properties_from_stats(s.stats)))
        groups.setdefault(s.skeleton_key, []).append(i)
    keys = sorted(groups, key=lambda k: hashlib.blake2b(k.encode(), digest_size=8).hexdigest())
    n = len(keys)
    n_train = round(0.81 * n)
    n_val = round(0.09 * n)
    train_idx, val_idx, test_idx = [], [], []
    for j, k in enumerate(keys):
        bucket = train_idx if j < n_train else val_idx if j < n_train + n_val else test_idx
        bucket.extend(groups[k])
    return Dataset(entries=entries, train_idx=sorted(train_idx),
                   val_idx=sorted(val_idx), test_idx=sorted(test_idx))


def write_dataset(dataset: Dataset, out_dir) -> None:
    """One TSV per split: ``tokens<TAB>p1<TAB>p2`` with space-joined tokens."""
    os.makedirs(out_dir, exist_ok=True)
    for which in ("train", "val", "test"):
        with open(os.path.join(out_dir, f"{which}.tsv"), "w") as fh:
            for tokens, props in dataset.subset(which):
                fh.write(f"{' '.join(tokens)}\t{props.p1!r}\t{props.p2!r}\n")


def read_split(path) -> list:
    """Read one split file back as (tokens, Properties) pairs.

    A line that is not ``tokens<TAB>p1<TAB>p2`` with tokens of ``VOCAB`` and
    finite numeric properties raises ArtifactIOError naming the file and line.
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                text, p1, p2 = line.rstrip("\n").split("\t")
                props = Properties(p1=float(p1), p2=float(p2))
            except ValueError as e:
                raise ArtifactIOError(f"{path}:{lineno}: malformed split line ({e})") from e
            if not (math.isfinite(props.p1) and math.isfinite(props.p2)):
                raise ArtifactIOError(f"{path}:{lineno}: non-finite property in split line")
            tokens = tuple(text.split())
            unknown = [t for t in tokens if t not in TOKEN_ID]
            if unknown:
                raise ArtifactIOError(f"{path}:{lineno}: unknown token {unknown[0]!r}")
            out.append((tokens, props))
    return out


def read_dataset(data_dir) -> Dataset:
    """The dataset ``write_dataset`` wrote to ``data_dir``, splits in file
    order. A missing split, like a malformed line, raises ArtifactIOError."""
    entries, idx = [], {}
    for which in ("train", "val", "test"):
        path = os.path.join(data_dir, f"{which}.tsv")
        if not os.path.exists(path):
            raise ArtifactIOError(f"missing dataset split {path}")
        start = len(entries)
        entries.extend(read_split(path))
        idx[which] = list(range(start, len(entries)))
    return Dataset(entries, idx["train"], idx["val"], idx["test"])
