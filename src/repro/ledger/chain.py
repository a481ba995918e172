"""In-memory blockchain index.

The authoritative copy of the chain lives in each replica's stable store
(written by ``repro.core.blockchain_layer``); this class is the in-memory
index over it: append blocks, look them up, compute the head digest, and
serialize to/from storage records.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.crypto.hashing import EMPTY_DIGEST
from repro.errors import LedgerError
from repro.ledger.block import Block
from repro.ledger.genesis import GenesisBlock

__all__ = ["Blockchain"]


class Blockchain:
    """Blocks 1..head of one replica's chain (genesis kept separately)."""

    def __init__(self, genesis: GenesisBlock, base_height: int = 0,
                 base_digest: bytes | None = None):
        self.genesis = genesis
        self._blocks: list[Block] = []
        #: Blocks 1..base_height are not held locally (covered by a
        #: checkpoint received via state transfer); the chain continues from
        #: ``base_digest``.
        self.base_height = base_height
        self._base_digest = (base_digest if base_digest is not None
                             else genesis.hash_for_block_one)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, block: Block) -> None:
        """Append a block; enforces numbering and the header hash chain."""
        expected_number = self.height + 1
        if block.number != expected_number:
            raise LedgerError(
                f"expected block {expected_number}, got {block.number}")
        if block.header.hash_last_block != self.head_digest():
            raise LedgerError(
                f"block {block.number} does not chain to the current head")
        self._blocks.append(block)

    def truncate(self, keep_up_to: int) -> list[Block]:
        """Drop blocks above ``keep_up_to`` (full-crash recovery may discard
        an uncovered suffix); returns the dropped blocks."""
        keep = max(0, keep_up_to - self.base_height)
        dropped = self._blocks[keep:]
        self._blocks = self._blocks[:keep]
        return dropped

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of the newest block (0 = only genesis)."""
        return self.base_height + len(self._blocks)

    def get(self, number: int) -> Block:
        if not self.base_height < number <= self.height:
            raise LedgerError(
                f"no block {number} held locally "
                f"(base {self.base_height}, height {self.height})")
        return self._blocks[number - self.base_height - 1]

    def digest_at(self, number: int) -> bytes | None:
        """Digest of block ``number`` as this chain knows it — a block it
        holds, or the base it continues from — else None."""
        if number == self.base_height:
            return self._base_digest
        if self.base_height < number <= self.height:
            return self._blocks[number - self.base_height - 1].digest()
        return None

    def head(self) -> Block | None:
        return self._blocks[-1] if self._blocks else None

    def head_digest(self) -> bytes:
        if not self._blocks:
            return self._base_digest
        return self._blocks[-1].digest()

    def blocks(self, start: int = 1, end: int | None = None) -> Iterator[Block]:
        """Iterate locally-held blocks ``start..end`` inclusive."""
        stop = self.height if end is None else min(end, self.height)
        for number in range(max(self.base_height + 1, start), stop + 1):
            yield self._blocks[number - self.base_height - 1]

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_records(self) -> list[tuple]:
        return [block.to_record() for block in self._blocks]

    @classmethod
    def from_records(cls, genesis: GenesisBlock,
                     records: Iterable[tuple]) -> "Blockchain":
        chain = cls(genesis)
        for record in records:
            chain.append(Block.from_record(record))
        return chain

    @classmethod
    def from_suffix(cls, genesis: GenesisBlock, base_height: int,
                    base_digest: bytes, blocks: Iterable[Block]) -> "Blockchain":
        """Build a chain holding only blocks after ``base_height`` (the rest
        is covered by a checkpoint snapshot)."""
        chain = cls(genesis, base_height=base_height, base_digest=base_digest)
        for block in blocks:
            chain.append(block)
        return chain
