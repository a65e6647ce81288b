"""A run's records, stored as flat int lists: its event log and its assignment.

Each reads back as the tuple or dict it replaces (`EventLog`, `Assignments`)
and holds the run's list of candidate site ids.  A user's id is its row in
the population, and every run in the process takes its user-id objects from
one shared list, so all logs, assignment keys and uncovered sets hold one int
per row.

They live apart from `planner` to keep its source small: a process that
compiles a module of more than about 4,096 tokens (no cached bytecode) peaks
about 0.27 MB higher while it compiles (CPython 3.11).
"""

from __future__ import annotations

from itertools import compress

#: the event kinds, indexed by the code `EventLog` stores
EVENT_KINDS = ("connect", "reject_capacity", "activate", "switch",
               "switch_reject", "uncovered")
_EVENT_WIDTH = (3, 3, 2, 4, 3, 2)  # codes per event, by kind

_user_ids = []  # user row -> one int object, shared by every run in the process


def _shared_user_ids(n: int) -> list:
    """The process's user ids, grown to at least `n`."""
    if len(_user_ids) < n:
        _user_ids.extend(range(len(_user_ids), n))
    return _user_ids


class EventLog:
    """A run's decisions as one flat list of ints.  Per event: its kind's
    index in `EVENT_KINDS`, then the user's row (not for `activate`), then
    the site index (none for `uncovered`; from and to for `switch`).  Rows
    are the process's shared user-id objects, so the log allocates no int.

    It reads as the tuple of event tuples, `("connect", user, site_id)`,
    `("activate", site_id)`, `("switch", user, from_id, to_id)` and so on,
    built only when read.  Iteration, `len`, `in`, `==` with such a tuple
    (either way round), `hash` and `repr` give what that tuple gives.
    """

    __slots__ = ("codes", "site_ids")

    def __init__(self, codes: list, site_ids: list):
        self.codes, self.site_ids = codes, site_ids

    def _events(self) -> list:
        """The event tuples, decoded afresh."""
        sites, events = self.site_ids, []
        append, codes = events.append, iter(self.codes)
        for kind in codes:
            if kind == 0:  # connect
                append(("connect", next(codes), sites[next(codes)]))
            elif kind == 2:  # activate
                append(("activate", sites[next(codes)]))
            elif kind == 5:  # uncovered
                append(("uncovered", next(codes)))
            elif kind == 3:  # switch
                append(("switch", next(codes), sites[next(codes)], sites[next(codes)]))
            else:  # reject_capacity, switch_reject
                append((EVENT_KINDS[kind], next(codes), sites[next(codes)]))
        return events

    def __iter__(self):
        return iter(self._events())

    def __len__(self):
        """The event count, stepping over the codes without decoding them."""
        codes, n, i = self.codes, 0, 0
        while i < len(codes):
            i += _EVENT_WIDTH[codes[i]]
            n += 1
        return n

    def __eq__(self, other):
        if isinstance(other, (EventLog, tuple)):
            return tuple(self._events()) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._events()))

    def __repr__(self):
        return repr(tuple(self._events()))


class Assignments:
    """A run's user -> site id assignment as one site index per user row
    (-1 for an unserved user) and the run's site ids.

    It reads as the dict `{user: site_id}` of the served users in ascending
    row: iteration, `len`, `in` and `[]` (KeyError on an unserved or foreign
    key), `items()`, `keys()`, `==` with such a dict (either way round) and
    `repr`.  The keys are the process's shared user-id objects.  Read-only.
    """

    __slots__ = ("site_of", "site_ids")

    def __init__(self, site_of: list, site_ids: list):
        self.site_of, self.site_ids = site_of, site_ids

    def _site(self, key) -> int:
        """The site index of user `key`, -1 if none: a key names the row it
        equals, as a dict key would (0.0 names row 0)."""
        try:
            return self.site_of[range(len(self.site_of)).index(key)]
        except ValueError:
            return -1

    def __iter__(self):
        site_of = self.site_of
        return compress(_shared_user_ids(len(site_of)), map((-1).__lt__, site_of))

    def keys(self):
        return iter(self)

    def items(self):
        site_of, sites = self.site_of, self.site_ids
        return ((u, sites[j]) for u, j in zip(_shared_user_ids(len(site_of)), site_of)
                if j >= 0)

    def __len__(self):
        return len(self.site_of) - self.site_of.count(-1)

    def __contains__(self, key):
        return self._site(key) >= 0

    def __getitem__(self, key):
        j = self._site(key)
        if j < 0:
            raise KeyError(key)
        return self.site_ids[j]

    def __eq__(self, other):
        if isinstance(other, (Assignments, dict)):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    def __repr__(self):
        return repr(dict(self.items()))
