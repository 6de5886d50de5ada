"""Seeded input generators and the independent reference for the e2e benchmark.

Every stream is made of plain rows ``(sign, relation, values)`` drawn from a
private ``random.Random`` seeded from ``--seed`` — the only source of
randomness.  A stream has a *warm-up* (loads the live state to its stated
size) and a *cycle* whose net effect is zero, so repeating the cycle is a
valid trace of any length and the live state stays at the stated size
(steady state: each arrival retires an older item).

The reference side (:class:`LiveRows` and the ``expected_*`` functions) never
touches ``repro``: it replays the same rows into plain ``Counter`` multisets
and computes every view's result with explicit Python loops.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

Row = Tuple[int, str, Tuple[Any, ...]]

NATIONS = ("FRANCE", "GERMANY", "JAPAN", "BRAZIL", "CANADA", "KENYA", "INDIA", "PERU")


@dataclass
class Stream:
    """One workload's generated input."""

    name: str
    params: Dict[str, Any]
    warm: List[Row]
    cycle: List[Row]
    #: Offsets into ``cycle`` (exclusive ends) at which the live state is a
    #: whole window; ``None`` means every offset is.
    step_ends: Optional[List[int]] = None
    #: Few distinct rows, many repeats: the Update objects are shared.
    repetitive: bool = False

    def digest(self) -> str:
        """A short stable fingerprint of every generated row."""
        return hashlib.sha256(repr((self.warm, self.cycle)).encode()).hexdigest()[:16]

    def cycle_net(self) -> Counter:
        """Net multiplicity per ``(relation, values)`` over one cycle (empty = zero-net)."""
        net: Counter = Counter()
        for sign, relation, values in self.cycle:
            net[(relation, values)] += sign
        return Counter({key: count for key, count in net.items() if count})

    def next_step_end(self, offset: int) -> int:
        """The first whole-window offset at or after ``offset`` (within one cycle)."""
        if self.step_ends is None or offset == 0:
            return offset
        return self.step_ends[bisect_left(self.step_ends, offset)]


def _rng(kind: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512 by ``random``: stable across runs
    # and platforms, and the workloads' streams are independent of each other.
    return random.Random(f"{kind}:{seed}")


def sales_stream(seed: int, window: int, customers: int = 200) -> Stream:
    """The sales dashboard's stream: a FIFO window of ``window`` open orders.

    Warm-up registers the customers and opens orders ``0..window-1``.  Each
    cycle step opens one order and closes the oldest open one.  The cycle
    first opens ``window // 16`` extra orders, then re-opens the original
    ones in their original order (each was closed earlier in the cycle), so
    after ``window + extra`` steps the live set is the warm-up's again.
    """
    rng = _rng("sales", seed)
    extra = max(1, window // 16)
    arrive: List[List[Row]] = []
    retire: List[List[Row]] = []
    for key in range(window + extra):
        customer = rng.randrange(customers)
        items = [
            (key, rng.randint(1, 100), rng.randint(1, 10)) for _ in range(rng.randint(1, 4))
        ]
        arrive.append([(1, "Orders", (key, customer))] + [(1, "Lineitem", item) for item in items])
        retire.append([(-1, "Lineitem", item) for item in items] + [(-1, "Orders", (key, customer))])
    warm: List[Row] = [
        (1, "Customer", (key, NATIONS[key % len(NATIONS)])) for key in range(customers)
    ]
    for key in range(window):
        warm.extend(arrive[key])
    opened = list(range(window, window + extra)) + list(range(window))
    closed = list(range(window + extra))
    cycle: List[Row] = []
    step_ends: List[int] = []
    for new, old in zip(opened, closed):
        cycle.extend(arrive[new])
        cycle.extend(retire[old])
        step_ends.append(len(cycle))
    return Stream(
        "sales",
        {"window": window, "customers": customers, "extra_orders": extra},
        warm,
        cycle,
        step_ends,
    )


def hotkey_stream(
    seed: int,
    length: int,
    base: int = 2000,
    domain: int = 16,
    zipf_s: float = 1.2,
    delete_fraction: float = 0.3,
) -> Stream:
    """A duplicate-heavy ``R(a, b)`` stream over a small Zipf-skewed domain.

    Same shape as ``repro.workloads.streams.producer_streams`` (random
    inserts, ``delete_fraction`` of steps delete a live tuple), generated
    here so the benchmark's inputs do not change when the library's helper
    does.  The cycle is the generated half followed by its exact undo in
    reverse order, which is valid at every prefix and nets to zero.
    """
    rng = _rng("hotkey", seed)
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, domain + 1):
        total += 1.0 / rank**zipf_s
        cumulative.append(total)
    draws = iter(rng.choices(range(domain), cum_weights=cumulative, k=2 * (base + length)))
    rows: Dict[Row, Row] = {}

    def row(sign: int, values: Tuple[int, int]) -> Row:
        candidate = (sign, "R", values)
        return rows.setdefault(candidate, candidate)

    live: List[Tuple[int, int]] = []
    warm: List[Row] = []
    for _ in range(base):
        values = (next(draws), next(draws))
        live.append(values)
        warm.append(row(1, values))
    forward: List[Row] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            index = rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            forward.append(row(-1, live.pop()))
        else:
            values = (next(draws), next(draws))
            live.append(values)
            forward.append(row(1, values))
    undo = [row(-sign, values) for sign, _relation, values in reversed(forward)]
    return Stream(
        "hotkey",
        {
            "length": length,
            "base": base,
            "domain": domain,
            "zipf_s": zipf_s,
            "delete_fraction": delete_fraction,
        },
        warm,
        forward + undo,
        None,
        repetitive=True,
    )


def posts_stream(
    seed: int,
    live: int,
    steps: int,
    communities: int = 200,
    random_delete_share: float = 0.4,
) -> Stream:
    """``P(community, post, score)`` with ``live`` posts alive at every step end.

    Each step publishes one new post and removes one: a uniformly random
    live post on ``random_delete_share`` of the steps (which regularly hits a
    group's current minimum / top-k member), else the oldest.  A closing
    tail swaps the surviving posts back for the warm-up's, so the cycle nets
    to zero with the live count unchanged throughout.
    """
    rng = _rng("posts", seed)
    posts: List[Tuple[int, int, int]] = []

    def publish() -> int:
        post = len(posts)
        posts.append((rng.randrange(communities), post, rng.randint(1, 100)))
        return post

    alive = [publish() for _ in range(live)]
    position = {post: index for index, post in enumerate(alive)}
    age = deque(alive)
    warm: List[Row] = [(1, "P", posts[post]) for post in alive]
    initial = set(alive)

    def remove(post: int) -> None:
        index = position.pop(post)
        last = alive.pop()
        if last != post:
            alive[index] = last
            position[last] = index

    cycle: List[Row] = []
    step_ends: List[int] = []
    for _ in range(steps):
        new = publish()
        position[new] = len(alive)
        alive.append(new)
        age.append(new)
        if rng.random() < random_delete_share:
            victim = alive[rng.randrange(len(alive) - 1)]
        else:
            while age[0] not in position:
                age.popleft()
            victim = age[0]
        remove(victim)
        cycle.append((1, "P", posts[new]))
        cycle.append((-1, "P", posts[victim]))
        step_ends.append(len(cycle))
    missing = sorted(initial - position.keys())
    surplus = sorted(position.keys() - initial)
    for back, out in zip(missing, surplus):
        cycle.append((1, "P", posts[back]))
        cycle.append((-1, "P", posts[out]))
        step_ends.append(len(cycle))
    return Stream(
        "posts",
        {
            "live": live,
            "steps": steps,
            "communities": communities,
            "random_delete_share": random_delete_share,
        },
        warm,
        cycle,
        step_ends,
    )


# -- the independent reference ------------------------------------------------


class LiveRows:
    """The live multiset of every relation, advanced by replaying stream rows."""

    def __init__(self, stream: Stream):
        self.stream = stream
        self.counts: Dict[str, Counter] = {}
        self.position = 0  # absolute number of cycle rows replayed
        self._replay(stream.warm)

    def _replay(self, rows) -> None:
        counts = self.counts
        for sign, relation, values in rows:
            table = counts.get(relation)
            if table is None:
                table = counts[relation] = Counter()
            remaining = table[values] + sign
            if remaining:
                table[values] = remaining
            else:
                del table[values]

    def advance_to(self, position: int) -> None:
        """Replay cycle rows up to absolute ``position`` (whole cycles net to zero)."""
        if position < self.position:
            raise ValueError("the reference only moves forward")
        cycle = self.stream.cycle
        size = len(cycle)
        start = self.position % size
        pending = (position - self.position) % size
        self._replay(cycle[start : start + pending])
        if start + pending > size:
            self._replay(cycle[: start + pending - size])
        self.position = position

    def rows(self, relation: str) -> Counter:
        return self.counts.get(relation, Counter())


def expected_dashboard(live: LiveRows) -> Dict[str, Dict[Tuple[Any, ...], int]]:
    """The four sales-dashboard views by explicit hash joins over the live rows."""
    order_revenue: Counter = Counter()
    for (order, price, quantity), count in live.rows("Lineitem").items():
        order_revenue[order] += count * price * quantity
    customer_revenue: Counter = Counter()
    customer_orders: Counter = Counter()
    for (order, customer), count in live.rows("Orders").items():
        customer_revenue[customer] += count * order_revenue[order]
        customer_orders[customer] += count
    revenue: Counter = Counter()
    by_customer: Counter = Counter()
    orders: Counter = Counter()
    total = 0
    for (customer, nation), count in live.rows("Customer").items():
        amount = count * customer_revenue[customer]
        revenue[(nation,)] += amount
        by_customer[(customer,)] += amount
        orders[(customer,)] += count * customer_orders[customer]
        total += amount
    return {
        "revenue": _nonzero(revenue),
        "revenue_by_customer": _nonzero(by_customer),
        "orders": _nonzero(orders),
        "total_revenue": _nonzero({(): total}),
    }


def expected_hotkey(live: LiveRows) -> Dict[str, Dict[Tuple[Any, ...], int]]:
    by_a: Counter = Counter()
    total = 0
    for (a, b), count in live.rows("R").items():
        by_a[(a,)] += count * b
        total += count * b
    return {"total": _nonzero({(): total}), "by_a": _nonzero(by_a)}


def expected_tiers(live: LiveRows) -> Dict[str, Dict[Tuple[Any, ...], Any]]:
    """HAVING SUM(score) > 1000, MIN(score) and the three highest scores, per community."""
    scores: Dict[int, List[int]] = {}
    for (community, _post, score), count in live.rows("P").items():
        scores.setdefault(community, []).extend([score] * count)
    hot = {}
    lowest = {}
    top = {}
    for community, values in scores.items():
        if sum(values) > 1000:
            hot[(community,)] = sum(values)
        lowest[(community,)] = float(min(values))
        top[(community,)] = tuple(float(value) for value in sorted(values, reverse=True)[:3])
    return {"hot": hot, "lowest": lowest, "top": top}


def _nonzero(mapping) -> Dict[Tuple[Any, ...], Any]:
    return {key: value for key, value in mapping.items() if value}
