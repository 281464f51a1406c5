"""Copy-on-write B-tree over the page file.

Keys and values are byte strings; keys are ordered lexicographically
(Berkeley DB's default B-tree comparator).  Nodes are serialized one per
page; a value longer than a quarter of a page is spilled to an overflow
page chain.  All structural updates follow the shadow-paging discipline:
a node touched for the first time in a checkpoint epoch is copied to a
freshly allocated page, so the durable tree of the previous checkpoint
stays intact until the next meta flip.

Nodes are serialized at checkpoint, not per put: between checkpoints
the in-memory :class:`_Node` is the only copy of a node, staged with the
pager, which produces its page bytes once at flush (or first read).
Each node also caches its serialized size, kept current by the entry
edits, so the split and underflow checks never recount a node.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import CorruptionError, KeyTooLargeError
from .pager import Pager

__all__ = ["BTree"]

_LEAF = 1
_INTERNAL = 2
_OVERFLOW = 3

MAX_KEY_SIZE = 1024
_INLINE_VALUE_FLAG = 0
_OVERFLOW_VALUE_FLAG = 1


class _Node:
    """In-memory B-tree node; ``epoch`` tracks COW freshness.

    ``size`` is the serialized size in bytes, or -1 when it must be
    recounted (after a split, merge or borrow rebuilt the entry lists).
    """

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "epoch", "size")

    def __init__(
        self,
        page_id: int,
        is_leaf: bool,
        keys: Optional[List[bytes]] = None,
        values: Optional[List[bytes]] = None,
        children: Optional[List[int]] = None,
        epoch: int = -1,
        size: int = -1,
    ) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys = keys if keys is not None else []
        self.values = values if values is not None else []  # leaf payloads
        self.children = children if children is not None else []
        self.epoch = epoch
        self.size = size


class BTree:
    """One named B-tree rooted at ``root`` (page id, -1 = empty).

    The owning store supplies the pager and the current epoch counter;
    the tree reports its (possibly new) root page id after every mutation
    via the ``root`` attribute.
    """

    def __init__(self, pager: Pager, root: int = -1) -> None:
        self.pager = pager
        self.root = root
        self.epoch = 0
        self._nodes: Dict[int, _Node] = {}
        # A value up to a quarter of a page stays on the leaf, as
        # Berkeley DB's default ``bt_minkey = 2`` keeps items up to about
        # a quarter page; a leaf still fits at least two such entries.
        self._inline_limit = max(64, pager.max_payload // 4)
        self._node_budget = pager.max_payload
        self._chunk_size = pager.max_payload - 9  # overflow: next(8) + type(1)

    # ------------------------------------------------------------------
    # Node io
    # ------------------------------------------------------------------
    def _load(self, page_id: int) -> _Node:
        node = self._nodes.get(page_id)
        if node is not None:
            return node
        payload = self.pager.read_page(page_id)
        node = self._deserialize(page_id, payload)
        self._nodes[page_id] = node
        return node

    def _store(self, node: _Node) -> None:
        self.pager.stage(node.page_id, self._serialize, node)
        self._nodes[node.page_id] = node

    def _shadow(self, node: _Node) -> _Node:
        """Ensure ``node`` is writable in the current epoch (COW)."""
        if node.epoch == self.epoch:
            return node
        # An epoch that began without a checkpoint can leave the old page
        # staged with this very node: fix its bytes before the node moves.
        self.pager.materialize(node.page_id)
        new_id = self.pager.allocate()
        self.pager.free(node.page_id)
        self._nodes.pop(node.page_id, None)
        node.page_id = new_id
        node.epoch = self.epoch
        self._nodes[new_id] = node
        return node

    def begin_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _serialize(self, node: _Node) -> bytes:
        parts = [struct.pack("<BH", _LEAF if node.is_leaf else _INTERNAL, len(node.keys))]
        if node.is_leaf:
            for key, value in zip(node.keys, node.values):
                parts.append(struct.pack("<H", len(key)))
                parts.append(key)
                parts.append(value)  # already encoded (flag + body)
        else:
            for key in node.keys:
                parts.append(struct.pack("<H", len(key)))
                parts.append(key)
            parts.append(struct.pack(f"<{len(node.children)}q", *node.children))
        return b"".join(parts)

    def _deserialize(self, page_id: int, payload: bytes) -> _Node:
        kind, nkeys = struct.unpack_from("<BH", payload)
        offset = 3
        keys: List[bytes] = []
        if kind == _LEAF:
            values: List[bytes] = []
            for _ in range(nkeys):
                (klen,) = struct.unpack_from("<H", payload, offset)
                offset += 2
                keys.append(payload[offset : offset + klen])
                offset += klen
                flag = payload[offset]
                if flag == _INLINE_VALUE_FLAG:
                    (vlen,) = struct.unpack_from("<I", payload, offset + 1)
                    end = offset + 5 + vlen
                else:
                    end = offset + 1 + 16  # flag + head page + total length
                values.append(payload[offset:end])
                offset = end
            return _Node(page_id, True, keys, values, epoch=-1, size=len(payload))
        if kind == _INTERNAL:
            for _ in range(nkeys):
                (klen,) = struct.unpack_from("<H", payload, offset)
                offset += 2
                keys.append(payload[offset : offset + klen])
                offset += klen
            children = list(struct.unpack_from(f"<{nkeys + 1}q", payload, offset))
            return _Node(
                page_id, False, keys, children=children, epoch=-1, size=len(payload)
            )
        raise CorruptionError(f"page {page_id}: bad node type {kind}")

    # -- value encoding (inline vs overflow chain) ---------------------
    def _encode_value(self, value: bytes) -> bytes:
        if len(value) <= self._inline_limit:
            return struct.pack("<BI", _INLINE_VALUE_FLAG, len(value)) + value
        head = self._write_overflow(value)
        return struct.pack("<BqQ", _OVERFLOW_VALUE_FLAG, head, len(value))

    def _decode_value(self, encoded: bytes) -> bytes:
        flag = encoded[0]
        if flag == _INLINE_VALUE_FLAG:
            (vlen,) = struct.unpack_from("<I", encoded, 1)
            return encoded[5 : 5 + vlen]
        head, total = struct.unpack_from("<qQ", encoded, 1)
        return self._read_overflow(head, total)

    def _free_value(self, encoded: bytes) -> None:
        """Release overflow pages owned by a replaced/deleted value."""
        if encoded[0] != _OVERFLOW_VALUE_FLAG:
            return
        head, total = struct.unpack_from("<qQ", encoded, 1)
        if total <= self._chunk_size:
            # A one-page chain: nothing to read to find the next page.
            self.pager.free(head)
            return
        page_id = head
        while page_id >= 0:
            payload = self.pager.read_page(page_id)
            (nxt,) = struct.unpack_from("<q", payload)
            self.pager.free(page_id)
            page_id = nxt

    def _write_overflow(self, value: bytes) -> int:
        size = self._chunk_size
        chunks = [value[i : i + size] for i in range(0, len(value), size)]
        head = -1
        for chunk in reversed(chunks):
            page_id = self.pager.allocate()
            self.pager.write_page(
                page_id, struct.pack("<qB", head, _OVERFLOW) + chunk
            )
            head = page_id
        return head

    def _read_overflow(self, head: int, total: int) -> bytes:
        parts: List[bytes] = []
        page_id = head
        while page_id >= 0:
            payload = self.pager.read_page(page_id)
            (nxt, kind) = struct.unpack_from("<qB", payload)
            if kind != _OVERFLOW:
                raise CorruptionError(f"page {page_id}: expected overflow page")
            parts.append(payload[9:])
            page_id = nxt
        data = b"".join(parts)
        if len(data) != total:
            raise CorruptionError(
                f"overflow chain {head}: expected {total} bytes, got {len(data)}"
            )
        return data

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _lookup(self, key: bytes) -> Optional[bytes]:
        """The encoded value stored under ``key``, or None."""
        if self.root < 0:
            return None
        node = self._load(self.root)
        while not node.is_leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                idx += 1
            node = self._load(node.children[idx])
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def get(self, key: bytes) -> Optional[bytes]:
        encoded = self._lookup(key)
        return None if encoded is None else self._decode_value(encoded)

    def __contains__(self, key: bytes) -> bool:
        # Never decodes the value, so an overflow chain is not read.
        return self._lookup(key) is not None

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values must be bytes")
        if len(key) > MAX_KEY_SIZE:
            raise KeyTooLargeError(f"key of {len(key)} bytes exceeds {MAX_KEY_SIZE}")
        encoded = self._encode_value(value)
        if self.root < 0:
            root = _Node(self.pager.allocate(), True, epoch=self.epoch)
            root.keys = [key]
            root.values = [encoded]
            self._store(root)
            self.root = root.page_id
            return
        root_obj = self._load(self.root)
        split = self._insert(root_obj, key, encoded)
        # _shadow mutates the node object in place, so root_obj.page_id is
        # the root's current id even after COW.
        self.root = root_obj.page_id
        if split is not None:
            sep, right_id = split
            new_root = _Node(self.pager.allocate(), False, epoch=self.epoch)
            new_root.keys = [sep]
            new_root.children = [self.root, right_id]
            self._store(new_root)
            self.root = new_root.page_id

    def _insert(
        self, node: _Node, key: bytes, encoded: bytes
    ) -> Optional[Tuple[bytes, int]]:
        node = self._shadow(node)
        if node.is_leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                old = node.values[idx]
                self._free_value(old)
                node.values[idx] = encoded
                self._resize(node, len(encoded) - len(old))
            else:
                node.keys.insert(idx, key)
                node.values.insert(idx, encoded)
                self._resize(node, 2 + len(key) + len(encoded))
            return self._finalize(node)
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            idx += 1
        child = self._load(node.children[idx])
        split = self._insert(child, key, encoded)
        node.children[idx] = child.page_id  # child may have been shadowed
        if split is not None:
            sep, right_id = split
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, right_id)
            self._resize(node, 2 + len(sep) + 8)
        return self._finalize(node)

    def _finalize(self, node: _Node) -> Optional[Tuple[bytes, int]]:
        """Store ``node``; split it first if it overflows the page budget."""
        if self._node_size(node) <= self._node_budget or len(node.keys) < 2:
            self._store(node)
            return None
        mid = self._split_point(node)
        right = _Node(self.pager.allocate(), node.is_leaf, epoch=self.epoch)
        if node.is_leaf:
            sep = node.keys[mid]
            right.keys = node.keys[mid:]
            right.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
        else:
            sep = node.keys[mid]
            right.keys = node.keys[mid + 1 :]
            right.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        node.size = -1
        self._store(node)
        self._store(right)
        return sep, right.page_id

    @staticmethod
    def _split_point(node: _Node) -> int:
        """Where to split an overfull node: the entries up to and
        including the one that crosses half the node's bytes go left.

        Splitting by bytes rather than by count keeps both halves under
        the page budget however unevenly sized the entries are (a leaf
        may mix quarter-page inline values with 17-byte overflow
        references)."""
        if node.is_leaf:
            sizes = [2 + len(key) + len(value) for key, value in zip(node.keys, node.values)]
        else:
            sizes = [2 + len(key) + 8 for key in node.keys]
        half = sum(sizes) / 2
        total = 0
        for mid, size in enumerate(sizes, 1):
            total += size
            if total >= half:
                break
        return min(mid, len(sizes) - 1)

    @staticmethod
    def _resize(node: _Node, delta: int) -> None:
        """Apply an entry edit of ``delta`` bytes to the cached size."""
        if node.size >= 0:
            node.size += delta

    @staticmethod
    def _node_size(node: _Node) -> int:
        if node.size < 0:
            size = 3 + sum(len(key) for key in node.keys) + 2 * len(node.keys)
            if node.is_leaf:
                size += sum(len(v) for v in node.values)
            else:
                size += 8 * len(node.children)
            node.size = size
        return node.size

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True if it was present."""
        if self.root < 0:
            return False
        root = self._load(self.root)
        if not self._delete(root, key):
            return False
        self.root = root.page_id  # COW-safe: same object, possibly new id
        # Collapse a root that lost all separators.
        if not root.is_leaf and len(root.children) == 1:
            only_child = root.children[0]
            self.pager.free(root.page_id)
            self._nodes.pop(root.page_id, None)
            self.root = only_child
        elif root.is_leaf and not root.keys:
            self.pager.free(root.page_id)
            self._nodes.pop(root.page_id, None)
            self.root = -1
        return True

    def _delete(self, node: _Node, key: bytes) -> bool:
        # Nodes are shadowed on the way back up, and only once the key
        # was found: deleting an absent key copies and stages nothing.
        if node.is_leaf:
            idx = bisect_left(node.keys, key)
            if idx == len(node.keys) or node.keys[idx] != key:
                return False
            node = self._shadow(node)
            self._free_value(node.values[idx])
            self._resize(node, -(2 + len(key) + len(node.values[idx])))
            del node.keys[idx]
            del node.values[idx]
            self._store(node)
            return True
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            idx += 1
        child = self._load(node.children[idx])
        if not self._delete(child, key):
            return False
        node = self._shadow(node)
        node.children[idx] = child.page_id
        if self._node_size(child) < self._node_budget // 4 or not child.keys:
            self._rebalance(node, idx)
        self._store(node)
        return True

    def _rebalance(self, parent: _Node, idx: int) -> None:
        """Fix an underfull child of ``parent`` by borrowing or merging."""
        child = self._load(parent.children[idx])
        # Prefer merging with a sibling when the combined node fits.
        for sibling_idx in (idx - 1, idx + 1):
            if 0 <= sibling_idx < len(parent.children):
                sibling = self._load(parent.children[sibling_idx])
                left, right = (sibling, child) if sibling_idx < idx else (child, sibling)
                sep_pos = min(idx, sibling_idx)
                merged_size = (
                    self._node_size(left)
                    + self._node_size(right)
                    + len(parent.keys[sep_pos])
                )
                if merged_size <= self._node_budget:
                    left = self._shadow(left)
                    if left.is_leaf:
                        left.keys.extend(right.keys)
                        left.values.extend(right.values)
                    else:
                        left.keys.append(parent.keys[sep_pos])
                        left.keys.extend(right.keys)
                        left.children.extend(right.children)
                    self.pager.free(right.page_id)
                    self._nodes.pop(right.page_id, None)
                    del parent.keys[sep_pos]
                    del parent.children[sep_pos + 1]
                    parent.children[sep_pos] = left.page_id
                    left.size = parent.size = -1
                    self._store(left)
                    return
        # Borrowing: move one entry from a richer sibling.
        for sibling_idx in (idx - 1, idx + 1):
            if not (0 <= sibling_idx < len(parent.children)):
                continue
            sibling = self._load(parent.children[sibling_idx])
            if len(sibling.keys) <= 1:
                continue
            sibling = self._shadow(sibling)
            child_s = self._shadow(child)
            sep_pos = min(idx, sibling_idx)
            if sibling_idx < idx:  # borrow from left sibling's tail
                if child_s.is_leaf:
                    child_s.keys.insert(0, sibling.keys.pop())
                    child_s.values.insert(0, sibling.values.pop())
                    parent.keys[sep_pos] = child_s.keys[0]
                else:
                    child_s.keys.insert(0, parent.keys[sep_pos])
                    parent.keys[sep_pos] = sibling.keys.pop()
                    child_s.children.insert(0, sibling.children.pop())
            else:  # borrow from right sibling's head
                if child_s.is_leaf:
                    child_s.keys.append(sibling.keys.pop(0))
                    child_s.values.append(sibling.values.pop(0))
                    parent.keys[sep_pos] = sibling.keys[0]
                else:
                    child_s.keys.append(parent.keys[sep_pos])
                    parent.keys[sep_pos] = sibling.keys.pop(0)
                    child_s.children.append(sibling.children.pop(0))
            parent.children[idx] = child_s.page_id
            parent.children[sibling_idx] = sibling.page_id
            sibling.size = child_s.size = parent.size = -1
            self._store(sibling)
            self._store(child_s)
            return

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def items(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        prefix: Optional[bytes] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, value)`` in key order within ``[start, end)``.

        ``prefix`` is a convenience: equivalent to the half-open range
        covering exactly keys with that prefix.
        """
        if prefix is not None:
            start = prefix
            end = prefix[:-1] + bytes([prefix[-1] + 1]) if prefix and prefix[-1] < 255 else None
            if prefix and prefix[-1] == 255:
                end = prefix + b"\xff" * MAX_KEY_SIZE  # conservative upper bound
        if self.root < 0:
            return
        yield from self._iter_node(self._load(self.root), start, end)

    def _iter_node(
        self, node: _Node, start: Optional[bytes], end: Optional[bytes]
    ) -> Iterator[Tuple[bytes, bytes]]:
        if node.is_leaf:
            for key, encoded in zip(node.keys, node.values):
                if start is not None and key < start:
                    continue
                if end is not None and key >= end:
                    return
                yield key, self._decode_value(encoded)
            return
        for i, child_id in enumerate(node.children):
            # child i holds keys in [keys[i-1], keys[i]); prune whole
            # subtrees outside [start, end).
            if start is not None and i < len(node.keys) and node.keys[i] < start:
                continue
            if end is not None and i > 0 and node.keys[i - 1] >= end:
                return
            yield from self._iter_node(self._load(child_id), start, end)

    def keys(self, **kwargs) -> Iterator[bytes]:
        for key, _value in self.items(**kwargs):
            yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.items())
