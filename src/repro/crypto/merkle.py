"""Merkle trees over transaction/result lists.

Block headers commit to the transactions and results of the block body via
Merkle roots (the paper's footnote 4 notes results can be a "compact
representation (e.g., a Merkle tree) of the state changes"), and membership
proofs let light clients check a single transaction against a header.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.hashing import (
    EMPTY_DIGEST, Memo, digest, hash_obj, hash_obj_cached, memoized)
from repro.errors import CryptoError

__all__ = ["MerkleTree", "MerkleProof", "merkle_root", "merkle_tree"]


class MerkleProof:
    """Authentication path for one leaf."""

    __slots__ = ("index", "leaf", "path")

    def __init__(self, index: int, leaf: bytes, path: list[tuple[bool, bytes]]):
        self.index = index
        self.leaf = leaf
        #: List of (sibling_is_left, sibling_digest) from leaf to root.
        self.path = path

    def compute_root(self) -> bytes:
        node = self.leaf
        for sibling_is_left, sibling in self.path:
            if sibling_is_left:
                node = digest(sibling + node)
            else:
                node = digest(node + sibling)
        return node


class MerkleTree:
    """Binary Merkle tree; odd nodes are promoted (Bitcoin-style duplication
    is avoided because it admits mutation attacks)."""

    def __init__(self, items: Sequence[Any]):
        self.leaves = [hash_obj(item) for item in items]
        self.levels: list[list[bytes]] = [list(self.leaves)]
        if not self.leaves:
            self._root = EMPTY_DIGEST
            return
        level = self.leaves
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(digest(level[i] + level[i + 1]))
            if len(level) % 2 == 1:
                nxt.append(level[-1])
            self.levels.append(nxt)
            level = nxt
        self._root = level[0]

    @property
    def root(self) -> bytes:
        return self._root

    def __len__(self) -> int:
        return len(self.leaves)

    def proof(self, index: int) -> MerkleProof:
        """Authentication path for the leaf at ``index``."""
        if not 0 <= index < len(self.leaves):
            raise CryptoError(f"leaf index {index} out of range")
        path: list[tuple[bool, bytes]] = []
        position = index
        for level in self.levels[:-1]:
            sibling_index = position ^ 1
            if sibling_index < len(level):
                path.append((sibling_index < position, level[sibling_index]))
            position //= 2
        return MerkleProof(index, self.leaves[index], path)

    @staticmethod
    def verify(root: bytes, item: Any, proof: MerkleProof) -> bool:
        """Check that ``item`` is the leaf authenticated by ``proof``."""
        if hash_obj_cached(item) != proof.leaf:
            return False
        return proof.compute_root() == root


def _root(items: Sequence[Any]) -> bytes:
    return MerkleTree(items).root


def merkle_root(items: Sequence[Any]) -> bytes:
    """Root digest of ``items`` (EMPTY_DIGEST for an empty list).

    Memoised by the content of the whole sequence (a tuple and a list of
    the same items are one entry): the n replicas closing the same block,
    their stores checksumming its records and the verifier re-deriving its
    header build one tree between them."""
    return memoized(_root, list(items), b"merkle-root")


#: The trees proofs were last served from, by content.  Small: a tree holds
#: every node, and proofs are asked for a block at a time.
_trees = Memo(capacity=32)


def merkle_tree(items: Sequence[Any]) -> MerkleTree:
    """The tree over ``items``, built once per content while it is one of
    the last few asked for — every proof of a block comes from one tree."""
    return memoized(MerkleTree, list(items), table=_trees)
