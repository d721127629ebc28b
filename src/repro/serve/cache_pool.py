"""KV-cache pooling: per-request cache blocks + a prefix-sharing radix trie.

A *block* is one request's decoding state — a list of per-layer
:class:`~repro.nn.attention.KVCache` handles.  The pool hands blocks out
at admission, takes them back at retirement, and recycles the reset
handles for the next request.  The pool owns no KV storage itself: the
serving engine binds a block to a slot of its
:class:`~repro.nn.attention.KVStore` at prefill, and resetting the block
at release hands the slot back.

**Prefix sharing** (``share_prefixes=True``) adds a radix trie of
immutable KV segments over prompt token sequences.  A request whose
prompt shares a prefix with earlier traffic (system prompts, resumed
requests) *leases* the matching trie path: the lease pins the path's
segments and copies them into the request's block once, at admission,
and prefill only computes the unshared suffix.  No block aliases a trie
segment, so a lessee's appends and truncations never reach the trie.
Trie nodes are refcounted by lease; nodes with no lessee are evicted
LRU, leaf-up, when the budget needs room.

Budget accounting is by *reserved* tokens and deduplicated storage: a
request reserves only its unshared worst-case footprint
(``prompt_len - shared_len + max_new_tokens``), while every shared trie
token is counted exactly once no matter how many requests lease it.
``resident_tokens`` likewise reports unique tokens: each request's
tokens past its leased prefix plus trie tokens (deduplicated).

Pool state is visible through ``repro.obs``:

* counter ``serve/pool/allocs`` — blocks created from scratch,
* counter ``serve/pool/recycles`` — blocks reused from the free list,
* counter ``serve/pool/prefix_hits`` — shared-prefix leases with >0 tokens,
* counter ``serve/pool/prefix_tokens_reused`` — prompt tokens served
  from the trie instead of prefill,
* counter ``serve/pool/evicted_tokens`` — trie tokens dropped for room,
* gauge ``serve/pool/occupancy`` — (reserved + trie tokens) / budget,
* gauge ``serve/pool/shared_tokens`` — tokens resident in the trie.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.attention import KVCache
from ..obs import get_registry


class _TrieNode:
    """One radix edge: a token span and its per-layer KV segment arrays.

    ``tokens`` is the edge label; ``k[layer]``/``v[layer]`` hold this
    span's cache entries, shape ``(1, kv_heads, len(tokens), head_dim)``.
    Segments are non-overlapping — the prefix's entries are the spans
    along the root path, in order.

    A node holds its parent weakly (parents own their children), so a
    dropped trie or an evicted subtree is freed by refcount alone, not
    whenever the cyclic collector next runs.
    """

    __slots__ = (
        "tokens", "k", "v", "children", "_parent", "refcount", "stamp",
        "__weakref__",
    )

    def __init__(self, tokens: Tuple[int, ...], k: List[np.ndarray],
                 v: List[np.ndarray], parent: Optional["_TrieNode"]):
        self.tokens = tokens
        self.k = k
        self.v = v
        self.children: Dict[int, _TrieNode] = {}
        self.parent = parent
        self.refcount = 0
        self.stamp = 0

    @property
    def parent(self) -> Optional["_TrieNode"]:
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, node: Optional["_TrieNode"]) -> None:
        self._parent = None if node is None else weakref.ref(node)

    @property
    def span(self) -> int:
        return len(self.tokens)

    def path_tokens(self) -> Tuple[int, ...]:
        parts = []
        node = self
        while node.parent is not None:
            parts.append(node.tokens)
            node = node.parent
        return tuple(t for span in reversed(parts) for t in span)


class PrefixTrie:
    """Radix trie of immutable, refcounted KV segments keyed by tokens.

    ``insert`` copies the inserted arrays into non-overlapping segments,
    which are never written again.  ``pin`` splits nodes so pinned paths
    end on node boundaries, keeping refcounts exact per segment.
    """

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self._root = _TrieNode((), [], [], parent=None)
        self._clock = 0

    # -- introspection -------------------------------------------------
    def resident_tokens(self) -> int:
        """Unique tokens stored (each span counted once)."""
        return sum(node.span for node in self._iter_nodes())

    def pinned_tokens(self) -> int:
        """Tokens in segments some lease still pins (directly or via a
        leased descendant)."""
        pinned = 0
        for node in self._iter_nodes():
            if self._pinned(node):
                pinned += node.span
        return pinned

    def node_count(self) -> int:
        return sum(1 for _ in self._iter_nodes())

    def unpinned_prefix_tokens(self, tokens: Sequence[int], length: int) -> int:
        """Tokens of the stored path covering ``tokens[:length]`` that no
        lease currently pins — i.e. how much ``pinned_tokens`` would grow
        if that prefix were leased now (used by admission pre-checks)."""
        tokens = tuple(int(t) for t in tokens)[:length]
        node, matched, unpinned = self._root, 0, 0
        while matched < len(tokens):
            child = node.children.get(tokens[matched])
            if child is None:
                break
            limit = min(child.span, len(tokens) - matched)
            i = 0
            while i < limit and child.tokens[i] == tokens[matched + i]:
                i += 1
            if i and not self._pinned(child):
                unpinned += i
            matched += i
            if i < child.span:
                break
            node = child
        return unpinned

    def debug_state(self) -> List[Tuple[Tuple[int, ...], int, int]]:
        """(path tokens, span, refcount) per node — for tests/oracles."""
        return sorted(
            (node.path_tokens(), node.span, node.refcount)
            for node in self._iter_nodes()
        )

    def _iter_nodes(self):
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def _pinned(self, node: _TrieNode) -> bool:
        if node.refcount > 0:
            return True
        return any(self._pinned(child) for child in node.children.values())

    # -- match / lease / release ---------------------------------------
    def match(self, tokens: Sequence[int]) -> int:
        """Longest stored prefix of ``tokens`` (no refcount change)."""
        tokens = tuple(int(t) for t in tokens)
        node, matched = self._root, 0
        while matched < len(tokens):
            child = node.children.get(tokens[matched])
            if child is None:
                break
            span = child.tokens
            i = 0
            limit = min(len(span), len(tokens) - matched)
            while i < limit and span[i] == tokens[matched + i]:
                i += 1
            matched += i
            if i < len(span):
                break
            node = child
        return matched

    def pin(
        self, tokens: Sequence[int], max_tokens: Optional[int] = None
    ) -> Tuple[int, List[_TrieNode]]:
        """Pin the longest stored prefix of ``tokens``; return its length
        and root path.

        The path's nodes are increfed; balance each pin of a non-empty
        prefix with :meth:`release`.  ``max_tokens`` caps the pinned
        length (a serving engine pins at most ``len(prompt) - 1`` so
        prefill always has one token to run).
        """
        tokens = tuple(int(t) for t in tokens)
        length = self.match(tokens)
        if max_tokens is not None:
            length = min(length, max_tokens)
        if length == 0:
            return 0, []
        path = self._path_for(tokens[:length])
        self._clock += 1
        for node in path:
            node.refcount += 1
            node.stamp = self._clock
        return length, path

    def release(self, tokens: Sequence[int], length: int) -> None:
        """Unpin a previously pinned prefix of exactly ``length`` tokens."""
        if length == 0:
            return
        tokens = tuple(int(t) for t in tokens)[:length]
        path = self._walk_exact(tokens)
        if path is None:
            raise KeyError(f"no leased path of length {length} for {tokens[:8]}...")
        for node in path:
            if node.refcount <= 0:
                raise RuntimeError(
                    f"refcount underflow at span {node.tokens[:8]} "
                    "(double release)"
                )
        for node in path:
            node.refcount -= 1

    # -- insert / evict ------------------------------------------------
    def insert(
        self,
        tokens: Sequence[int],
        k_full: Sequence[np.ndarray],
        v_full: Sequence[np.ndarray],
    ) -> int:
        """Store KV for ``tokens`` (arrays cover the whole sequence).

        Only the unmatched suffix is copied into a new segment (the
        arrays may be views of live caches); returns the number of newly
        stored tokens (0 if fully present).
        """
        tokens = tuple(int(t) for t in tokens)
        if not tokens:
            return 0
        if len(k_full) != self.num_layers or len(v_full) != self.num_layers:
            raise ValueError(
                f"expected {self.num_layers} per-layer arrays, "
                f"got {len(k_full)}/{len(v_full)}"
            )
        for layer, arr in enumerate(k_full):
            if arr.ndim != 4 or arr.shape[2] < len(tokens):
                raise ValueError(
                    f"layer {layer} arrays cover {arr.shape} < {len(tokens)} tokens"
                )
        matched = self.match(tokens)
        if matched == len(tokens):
            return 0
        parent = self._node_at(tokens[:matched])
        span = tokens[matched:]
        seg_k = [a[:, :, matched:len(tokens), :].copy() for a in k_full]
        seg_v = [a[:, :, matched:len(tokens), :].copy() for a in v_full]
        node = _TrieNode(span, seg_k, seg_v, parent=parent)
        self._clock += 1
        node.stamp = self._clock
        parent.children[span[0]] = node
        return len(span)

    def evict(self, tokens_needed: int) -> int:
        """Drop unpinned segments, LRU leaf-up, until ``tokens_needed``
        tokens are freed (or nothing evictable remains).  Returns freed."""
        freed = 0
        while freed < tokens_needed:
            victims = [
                node for node in self._iter_nodes()
                if node.refcount == 0 and not node.children
            ]
            if not victims:
                break
            victim = min(victims, key=lambda n: (n.stamp, n.tokens))
            del victim.parent.children[victim.tokens[0]]
            freed += victim.span
        if freed:
            get_registry().counter("serve/pool/evicted_tokens").inc(freed)
        return freed

    # -- internals -----------------------------------------------------
    def _node_at(self, tokens: Tuple[int, ...]) -> _TrieNode:
        """Node whose root path equals ``tokens`` exactly, splitting a
        node if the boundary falls mid-span.  ``tokens`` must be stored."""
        if not tokens:
            return self._root
        path = self._path_for(tokens)
        return path[-1]

    def _path_for(self, tokens: Tuple[int, ...]) -> List[_TrieNode]:
        """Nodes covering exactly ``tokens``, splitting the final node if
        needed so the path ends on a node boundary."""
        node, matched = self._root, 0
        path: List[_TrieNode] = []
        while matched < len(tokens):
            child = node.children.get(tokens[matched])
            if child is None:
                raise KeyError(f"prefix {tokens[:8]}... not stored")
            take = min(len(child.tokens), len(tokens) - matched)
            if child.tokens[:take] != tokens[matched:matched + take]:
                raise KeyError(f"prefix {tokens[:8]}... not stored")
            if take < len(child.tokens):
                child = self._split(child, take)
            path.append(child)
            node = child
            matched += take
        return path

    def _walk_exact(self, tokens: Tuple[int, ...]) -> Optional[List[_TrieNode]]:
        """Like ``_path_for`` but never splits; None unless the boundary
        lands exactly on a node edge (as leases always do)."""
        node, matched = self._root, 0
        path: List[_TrieNode] = []
        while matched < len(tokens):
            child = node.children.get(tokens[matched])
            if child is None:
                return None
            take = len(child.tokens)
            if tokens[matched:matched + take] != child.tokens:
                return None
            path.append(child)
            node = child
            matched += take
        return path if matched == len(tokens) else None

    def _split(self, node: _TrieNode, at: int) -> _TrieNode:
        """Split ``node``'s span at ``at``: parent keeps ``span[:at]``,
        a new child takes the rest (children and refcount follow)."""
        head_k = [np.ascontiguousarray(a[:, :, :at, :]) for a in node.k]
        head_v = [np.ascontiguousarray(a[:, :, :at, :]) for a in node.v]
        tail_k = [np.ascontiguousarray(a[:, :, at:, :]) for a in node.k]
        tail_v = [np.ascontiguousarray(a[:, :, at:, :]) for a in node.v]
        head = _TrieNode(node.tokens[:at], head_k, head_v, parent=node.parent)
        # Every lease through the old node covered its whole span, so
        # both halves inherit the refcount.
        head.refcount = node.refcount
        head.stamp = node.stamp
        node.parent.children[node.tokens[0]] = head
        node.tokens = node.tokens[at:]
        node.k, node.v = tail_k, tail_v
        node.parent = head
        head.children[node.tokens[0]] = node
        return head


@dataclasses.dataclass
class _Lease:
    block: List[KVCache]
    reserved_tokens: int
    shared_tokens: Tuple[int, ...] = ()
    shared_len: int = 0


class CachePool:
    """Allocates and recycles per-request KV-cache blocks under a budget."""

    def __init__(
        self,
        num_layers: int,
        max_resident_tokens: int,
        share_prefixes: bool = False,
    ):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if max_resident_tokens < 1:
            raise ValueError("max_resident_tokens must be >= 1")
        self.num_layers = num_layers
        self.max_resident_tokens = max_resident_tokens
        self.share_prefixes = share_prefixes
        self.trie = PrefixTrie(num_layers) if share_prefixes else None
        self._free: List[List[KVCache]] = []
        self._leases: Dict[str, _Lease] = {}

    # -- accounting ----------------------------------------------------
    @property
    def reserved_tokens(self) -> int:
        """Worst-case *private* tokens promised to active requests."""
        return sum(lease.reserved_tokens for lease in self._leases.values())

    def shared_resident_tokens(self) -> int:
        """Unique tokens stored in the prefix trie (0 without sharing)."""
        return self.trie.resident_tokens() if self.trie is not None else 0

    def resident_tokens(self) -> int:
        """Unique tokens actually cached right now: each active block's
        tokens past its pinned trie prefix plus deduplicated trie tokens."""
        private = sum(
            max(lease.block[0].length - lease.shared_len, 0)
            for lease in self._leases.values()
        )
        return private + self.shared_resident_tokens()

    def occupancy(self) -> float:
        """(Private reservations + trie tokens) / budget, in [0, 1]."""
        used = self.reserved_tokens + self.shared_resident_tokens()
        return used / self.max_resident_tokens

    def can_reserve(self, tokens: int) -> bool:
        """Whether ``tokens`` fit the budget (unpinned trie segments are
        evictable on demand and do not block a reservation)."""
        pinned = self.trie.pinned_tokens() if self.trie is not None else 0
        return self.reserved_tokens + pinned + tokens <= self.max_resident_tokens

    def required_tokens(self, prompt: Sequence[int], reserved_tokens: int) -> int:
        """Private reservation needed for ``prompt`` given current trie
        contents (``reserved_tokens`` minus the leasable prefix)."""
        if self.trie is None:
            return reserved_tokens
        matched = min(self.trie.match(prompt), max(len(prompt) - 1, 0))
        return reserved_tokens - matched

    def can_admit(self, prompt: Sequence[int], reserved_tokens: int) -> bool:
        """Exact pre-check for :meth:`allocate_shared`: whether the
        request fits the budget *after* its leasable prefix is pinned.

        Mirrors the internal admission arithmetic — the shared prefix
        shrinks the private reservation, but any of its tokens not pinned
        by another lessee start counting against the budget once this
        request pins them.  Without prefix sharing this is
        :meth:`can_reserve` on the full reservation.
        """
        if self.trie is None:
            return self.can_reserve(reserved_tokens)
        prompt = tuple(int(t) for t in prompt)
        matched = min(self.trie.match(prompt), max(len(prompt) - 1, 0))
        newly_pinned = self.trie.unpinned_prefix_tokens(prompt, matched)
        return (
            self.reserved_tokens + self.trie.pinned_tokens() + newly_pinned
            + (reserved_tokens - matched) <= self.max_resident_tokens
        )

    def active_requests(self) -> List[str]:
        return list(self._leases)

    # -- lifecycle -----------------------------------------------------
    def allocate(self, request_id: str, tokens: int) -> List[KVCache]:
        """Lease a plain cache block to ``request_id`` reserving ``tokens``."""
        self._check_admission(request_id, tokens)
        block = self._block()
        self._leases[request_id] = _Lease(block, tokens)
        self._publish()
        return block

    def allocate_shared(
        self, request_id: str, prompt: Sequence[int], reserved_tokens: int
    ) -> Tuple[List[KVCache], int]:
        """Lease a block holding a copy of the trie's longest prefix of
        ``prompt`` (capped at ``len(prompt) - 1`` so prefill always has at
        least one token to run).  Returns ``(block, cached_len)``; the
        caller prefills only ``prompt[cached_len:]``.
        """
        if self.trie is None:
            raise ValueError("pool was built without share_prefixes")
        prompt = tuple(int(t) for t in prompt)
        # Pin the path before the admission check so the check's
        # make-room eviction cannot drop the very prefix this request is
        # about to reuse.
        cached_len, path = self.trie.pin(prompt, max_tokens=max(len(prompt) - 1, 0))
        try:
            self._check_admission(request_id, reserved_tokens - cached_len)
        except Exception:
            if cached_len:
                self.trie.release(prompt[:cached_len], cached_len)
            raise
        block = self._block()
        if cached_len:
            reg = get_registry()
            reg.counter("serve/pool/prefix_hits").inc()
            reg.counter("serve/pool/prefix_tokens_reused").inc(cached_len)
            for node in path:
                for layer, cache in enumerate(block):
                    cache.append(node.k[layer], node.v[layer])
        self._leases[request_id] = _Lease(
            block, reserved_tokens - cached_len,
            shared_tokens=prompt[:cached_len], shared_len=cached_len,
        )
        self._publish()
        return block, cached_len

    def commit_prefix(self, request_id: str, tokens: Sequence[int]) -> int:
        """Publish ``request_id``'s first ``len(tokens)`` cached positions
        into the trie and move its pin onto the stored path.

        Called after prefill: the freshly computed prompt suffix becomes
        leasable by later requests, and this request's private
        reservation shrinks by the newly shared span (dedup accounting).
        Returns the number of tokens newly stored.
        """
        if self.trie is None:
            return 0
        lease = self._require(request_id)
        tokens = tuple(int(t) for t in tokens)
        block = lease.block
        if block[0].length != len(tokens):
            raise ValueError(
                f"commit covers {len(tokens)} tokens but cache holds "
                f"{block[0].length}"
            )
        self.trie.insert(tokens, [c.k for c in block], [c.v for c in block])
        new_len, _ = self.trie.pin(tokens, max_tokens=len(tokens))
        if lease.shared_len:
            self.trie.release(lease.shared_tokens, lease.shared_len)
        newly_shared = new_len - lease.shared_len
        lease.reserved_tokens -= newly_shared
        lease.shared_tokens = tokens[:new_len]
        lease.shared_len = new_len
        self._publish()
        return newly_shared

    def promote_and_release(
        self, request_id: str, tokens: Sequence[int]
    ) -> None:
        """Publish the block's cached state for ``tokens`` into the trie,
        then release the lease (used at preemption: the evicted request
        can later resume by leasing its own prefix back).
        """
        lease = self._require(request_id)
        tokens = tuple(int(t) for t in tokens)
        block = lease.block
        covered = min(len(tokens), block[0].length)
        if self.trie is not None and covered:
            self.trie.insert(
                tokens[:covered],
                [c.k[:, :, :covered] for c in block],
                [c.v[:, :, :covered] for c in block],
            )
        self.release(request_id)

    def release(self, request_id: str) -> None:
        """Take the block back, unpin its trie prefix and recycle it."""
        lease = self._leases.pop(request_id, None)
        if lease is None:
            raise KeyError(f"request {request_id!r} holds no block")
        if lease.shared_len:
            self.trie.release(lease.shared_tokens, lease.shared_len)
        for cache in lease.block:
            cache.reset()
        self._free.append(lease.block)
        self._publish()

    # -- internals -----------------------------------------------------
    def _block(self) -> List[KVCache]:
        """A recycled block, or a new one."""
        reg = get_registry()
        if self._free:
            reg.counter("serve/pool/recycles").inc()
            return self._free.pop()
        reg.counter("serve/pool/allocs").inc()
        return [KVCache() for _ in range(self.num_layers)]

    def _require(self, request_id: str) -> _Lease:
        lease = self._leases.get(request_id)
        if lease is None:
            raise KeyError(f"request {request_id!r} holds no block")
        return lease

    def _check_admission(self, request_id: str, tokens: int) -> None:
        if request_id in self._leases:
            raise ValueError(f"request {request_id!r} already holds a block")
        if tokens < 1:
            raise ValueError(f"reservation must be >= 1 token, got {tokens}")
        if not self.can_reserve(tokens):
            raise ValueError(
                f"reserving {tokens} tokens exceeds budget "
                f"({self.reserved_tokens}/{self.max_resident_tokens} reserved)"
            )
        if self.trie is not None:
            over = (
                self.reserved_tokens + self.trie.resident_tokens() + tokens
                - self.max_resident_tokens
            )
            if over > 0:
                self.trie.evict(over)

    def _publish(self) -> None:
        reg = get_registry()
        reg.gauge("serve/pool/occupancy").set(self.occupancy())
        if self.trie is not None:
            reg.gauge("serve/pool/shared_tokens").set(
                self.shared_resident_tokens()
            )
