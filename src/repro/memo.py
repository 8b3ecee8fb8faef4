"""The bounded table behind every :class:`~repro.core.session.Session` memo and graph template."""

from __future__ import annotations

from collections import OrderedDict


class Memo(OrderedDict):
    """At most ``bound`` entries, the least recently used first.

    A hit (:meth:`get`) makes its entry the most recently used; a new key,
    set or ``setdefault`` (which sets through ``__setitem__`` on a
    subclass), past the bound drops the least recently used one and
    counts it in ``evictions``.  A value of None reads as a miss.  A memo
    is not thread-safe: its owner's lock guards it.

    Example:
        >>> from repro.memo import Memo
        >>> memo = Memo(2)
        >>> memo.setdefault("a", 1), memo.setdefault("b", 2), memo.get("a")
        (1, 2, 1)
        >>> memo.setdefault("c", 3), list(memo), memo.evictions
        (3, ['a', 'c'], 1)
    """

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound
        self.evictions = 0

    def get(self, key):
        """The value kept under ``key``, now the most recently used, or None."""
        try:
            self.move_to_end(key)
        except KeyError:
            return None
        return self[key]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.bound:
            self.popitem(last=False)
            self.evictions += 1
