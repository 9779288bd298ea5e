"""Mutation trail: the undo log behind checkpoint/rollback.

The deduction hot path used to deep-copy the whole scheduling state for
every candidate decision studied (one full dict/set/union-find/VCG copy per
candidate, per stage, per AWCT target).  Following the classic SAT/CP-solver
design (MiniSat/Chaff trails), every elementary mutation of the state now
records its inverse on a :class:`Trail`; ``checkpoint()`` returns a mark and
``rollback(mark)`` undoes everything recorded since, restoring the state
exactly.  Probing a candidate becomes apply-then-undo instead of
copy-then-apply.

The trail stores flat 4-tuples ``(tag, target, key, old)`` rather than
closures: entries are created on the hottest path of the scheduler, and a
tuple append plus a small dispatch on undo is markedly cheaper than
allocating a closure per mutation.

Entry kinds
-----------
``_SET``     mapping[key] was set; ``old`` is the previous value or
             :data:`MISSING` when the key was absent.
``_ADD``     ``key`` was added to the set ``target``.
``_DISCARD`` ``key`` was removed from the set ``target``.
``_APPEND``  one item was appended to the list ``target``.
``_EXTEND``  ``target`` (a list) grew; ``key`` is the previous length.
``_ATTR``    attribute ``key`` of object ``target`` was rebound; ``old`` is
             the previous value.

Structures shared with the state (the offset union-find, the virtual
cluster graph, the communication set) accept an attached trail and route
their own mutations through it; when no trail is attached they mutate
directly, so they remain usable standalone.
"""

from __future__ import annotations

from typing import Any, List, MutableMapping, Optional, Set


class _Missing:
    """Sentinel for 'key was absent' (distinct from a stored None)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


MISSING = _Missing()

_SET = 0
_ADD = 1
_DISCARD = 2
_APPEND = 3
_EXTEND = 4
_ATTR = 5


class Trail:
    """Undo log of elementary mutations with integer checkpoints."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[tuple] = []

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Current trail position; pass to :meth:`rollback` to undo to here."""
        return len(self._entries)

    def rollback(self, mark: int) -> int:
        """Undo every mutation recorded after *mark*; returns entries undone."""
        entries = self._entries
        undone = len(entries) - mark
        while len(entries) > mark:
            tag, target, key, old = entries.pop()
            if tag == _SET:
                if old is MISSING:
                    del target[key]
                else:
                    target[key] = old
            elif tag == _ADD:
                target.discard(key)
            elif tag == _DISCARD:
                target.add(key)
            elif tag == _APPEND:
                target.pop()
            elif tag == _EXTEND:
                del target[key:]
            else:  # _ATTR
                setattr(target, key, old)
        return undone

    def rollback_capture(self, mark: int) -> List[tuple]:
        """Undo to *mark* and return a redo log that re-applies the span.

        The redo log records the *forward* values of every undone mutation,
        in application order.  Passing it to :meth:`redo` on a state that is
        byte-identical to the one the span originally started from
        reproduces the span exactly — without re-running whatever computed
        it.  The scheduler uses this to keep the winning candidate of a
        probe round: probe (deduce + record), roll back with capture, and
        once the winner is known redo its log instead of re-deducing it.
        """
        entries = self._entries
        redo: List[tuple] = []
        while len(entries) > mark:
            tag, target, key, old = entries.pop()
            if tag == _SET:
                redo.append((_SET, target, key, target.get(key, MISSING)))
                if old is MISSING:
                    del target[key]
                else:
                    target[key] = old
            elif tag == _ADD:
                redo.append((_ADD, target, key, None))
                target.discard(key)
            elif tag == _DISCARD:
                redo.append((_DISCARD, target, key, None))
                target.add(key)
            elif tag == _APPEND:
                redo.append((_APPEND, target, target[-1], None))
                target.pop()
            elif tag == _EXTEND:
                redo.append((_EXTEND, target, target[key:], None))
                del target[key:]
            else:  # _ATTR
                redo.append((_ATTR, target, key, getattr(target, key)))
                setattr(target, key, old)
        redo.reverse()
        return redo

    def redo(self, log: List[tuple]) -> None:
        """Re-apply a redo log from :meth:`rollback_capture`, re-recording
        every mutation so the redone span can itself be rolled back.

        The undo entries are appended directly instead of going through the
        recording mutators: the log was captured from real mutations on a
        byte-identical state, so every mutator guard (key present before a
        delete, item absent before a set add, ...) is known to hold and the
        membership re-checks would be pure overhead on what is the single
        hottest call of the winner-keeping path."""
        entries = self._entries
        for tag, target, a, b in log:
            if tag == _SET:
                if b is MISSING:
                    entries.append((_SET, target, a, target[a]))
                    del target[a]
                else:
                    entries.append((_SET, target, a, target.get(a, MISSING)))
                    target[a] = b
            elif tag == _ADD:
                entries.append((_ADD, target, a, None))
                target.add(a)
            elif tag == _DISCARD:
                entries.append((_DISCARD, target, a, None))
                target.discard(a)
            elif tag == _APPEND:
                entries.append((_APPEND, target, None, None))
                target.append(a)
            elif tag == _EXTEND:
                entries.append((_EXTEND, target, len(target), None))
                target.extend(a)
            else:  # _ATTR
                entries.append((_ATTR, target, a, getattr(target, a)))
                setattr(target, a, b)

    # ------------------------------------------------------------------ #
    # recording mutators (record *and* apply)
    # ------------------------------------------------------------------ #
    def set_item(self, mapping: MutableMapping, key: Any, value: Any) -> None:
        self._entries.append((_SET, mapping, key, mapping.get(key, MISSING)))
        mapping[key] = value

    def del_item(self, mapping: MutableMapping, key: Any) -> None:
        if key in mapping:
            self._entries.append((_SET, mapping, key, mapping[key]))
            del mapping[key]

    def add_to_set(self, target: Set, item: Any) -> None:
        if item not in target:
            self._entries.append((_ADD, target, item, None))
            target.add(item)

    def discard_from_set(self, target: Set, item: Any) -> None:
        if item in target:
            self._entries.append((_DISCARD, target, item, None))
            target.discard(item)

    def append_to_list(self, target: List, item: Any) -> None:
        self._entries.append((_APPEND, target, None, None))
        target.append(item)

    def extend_list(self, target: List, items) -> None:
        self._entries.append((_EXTEND, target, len(target), None))
        target.extend(items)

    def set_attr(self, obj: Any, name: str, value: Any) -> None:
        self._entries.append((_ATTR, obj, name, getattr(obj, name)))
        setattr(obj, name, value)


# --------------------------------------------------------------------------- #
# helpers for structures that work with or without an attached trail
# --------------------------------------------------------------------------- #
def tset(trail: Optional[Trail], mapping: MutableMapping, key: Any, value: Any) -> None:
    if trail is None:
        mapping[key] = value
    else:
        trail.set_item(mapping, key, value)


def tdel(trail: Optional[Trail], mapping: MutableMapping, key: Any) -> None:
    if trail is None:
        mapping.pop(key, None)
    else:
        trail.del_item(mapping, key)


def tadd(trail: Optional[Trail], target: Set, item: Any) -> None:
    if trail is None:
        target.add(item)
    else:
        trail.add_to_set(target, item)


def tdiscard(trail: Optional[Trail], target: Set, item: Any) -> None:
    if trail is None:
        target.discard(item)
    else:
        trail.discard_from_set(target, item)


def textend(trail: Optional[Trail], target: List, items) -> None:
    if trail is None:
        target.extend(items)
    else:
        trail.extend_list(target, items)
