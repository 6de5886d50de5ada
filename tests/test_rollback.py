"""Rollback exactness of the transactional batch path, proven by injected faults.

``Session.apply_batch`` wraps every batch in an undo-journal transaction
(:mod:`repro.compiler.kernels`): the kernels record the prior value of every
entry they write, commit drops the journal, rollback replays it backwards.
These tests poison a batch at each write site and assert the *internal* state
afterwards — tables, slice-index buckets, Kahan terms, support structures,
work counters, history — not just the view results; then a follow-up good
batch must land exactly where the per-tuple reference semantics does.
"""

from __future__ import annotations

import logging
import random
from typing import Any, Callable, Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.lattices import SupportStructure, SupportTier
from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, resolve_semiring
from repro.compiler.executor import CompiledExecutor
from repro.compiler.indexes import SliceIndexes, slice_keys
from repro.compiler.runtime import TriggerRuntime
from repro.gmr.database import Update, delete, insert
from repro.ivm.base import results_agree
from repro.ivm.naive import NaiveReevaluation
from repro.session import Session
from repro.sql.frontend import sql_to_agca
from tests.conftest import grouped_session

BACKENDS = ("generated", "interpreted")
#: Table layouts: plain dicts, the only one.
LAYOUTS = (1,)


class InjectedFault(RuntimeError):
    """Raised by the fault injectors (never by the library)."""


# ---------------------------------------------------------------------------
# Fault injectors: wrap one kernel of one compiled group
# ---------------------------------------------------------------------------


class Injector:
    """Counts calls of the wrapped kernels and poisons call number ``at_call``
    (``None``: count only)."""

    def __init__(self, at_call: Optional[int] = None):
        self.at_call = at_call
        self.calls = 0

    def fires(self) -> bool:
        self.calls += 1
        return self.calls == self.at_call

    def install(self, group, names: Dict[str, str], wrap: Callable) -> "Injector":
        """Replace kernel ``attribute`` of the group's runtime and its twin
        ``namespace name`` in the generated module (the same function)."""
        kernels = group.runtime._kernels
        for attribute, alias in names.items():
            real = getattr(kernels, attribute)
            if real is None:
                continue
            wrapped = wrap(self, real)
            setattr(kernels, attribute, wrapped)
            if group.generated is not None:
                group.generated._namespace[alias] = wrapped
        return self


def _poison_fold(injector: Injector, real: Callable) -> Callable:
    """The poisoned call folds a copy of ``acc`` whose middle increment cannot
    be added: the fold raises *inside* the kernel — in change capture when the
    map is watched, otherwise midway through the fold loop, with the keys
    before it already written."""

    def fold(table, acc, *rest, **keywords):
        if acc and injector.fires():
            keys = list(acc)
            acc = dict(acc)
            acc[keys[len(keys) // 2]] = "boom"
        return real(table, acc, *rest, **keywords)

    return fold


def _poison_write_back(injector: Injector, real: Callable) -> Callable:
    """The poisoned call's ``new_values`` raise after the first half was
    written back."""

    def write_back(table, new_values, *rest, **keywords):
        if injector.fires():
            pairs = list(new_values)

            def poisoned():
                yield from pairs[: (len(pairs) + 1) // 2]
                raise InjectedFault("write_back")

            new_values = poisoned()
        return real(table, new_values, *rest, **keywords)

    return write_back


def _poison_fold_total(injector: Injector, real: Callable) -> Callable:
    """The poisoned call raises right after its entry and its compensation
    term were written."""

    def fold_total(*arguments, **keywords):
        real(*arguments, **keywords)
        if injector.fires():
            raise InjectedFault("fold_total")

    return fold_total


def poison_folds(group, at_call: Optional[int] = None) -> Injector:
    return Injector(at_call).install(group, {"fold": "_fold", "fold_int": "_fold_int"}, _poison_fold)


# ---------------------------------------------------------------------------
# Internal state, as mappings (dict insertion order is not state)
# ---------------------------------------------------------------------------


def work_counters(group):
    statistics = group.statistics
    return (
        statistics.updates_processed,
        statistics.statements_executed,
        statistics.entries_updated,
    )


def supports_state(runtime: TriggerRuntime):
    tier = runtime._support_tier
    if tier is None:
        return None
    return {
        name: {tuple(group): support for group, support in payload["groups"]}
        for name, payload in tier.serialize().items()
    }


def internal_state(session: Session) -> Dict[str, Any]:
    """Everything a rolled-back batch must leave untouched.  Also checks the
    standing invariant that the slice indexes equal a fresh rebuild."""
    state: Dict[str, Any] = {
        "history": list(session._history),
        "updates_applied": session.updates_applied,
        "results": session.results(),
    }
    for backend, group in session._groups.items():
        runtime = group.runtime
        fresh = SliceIndexes(runtime.index_specs)
        fresh.rebuild(runtime.maps)
        assert runtime.indexes.data == fresh.data, backend
        state[backend] = {
            "tables": {name: dict(table.items()) for name, table in runtime.maps.items()},
            "indexes": {
                signature: {prefix: set(slice_keys(bucket, prefix)) for prefix in bucket}
                for signature, bucket in runtime.indexes.data.items()
            },
            "compensation": dict(runtime.maps.compensation),
            "supports": supports_state(runtime),
            "counters": work_counters(group),
        }
    return state


# ---------------------------------------------------------------------------
# The matrix: one scenario per write site
# ---------------------------------------------------------------------------

SALES_SCHEMA = {"C": ("ck", "nation"), "O": ("ok", "ck"), "L": ("ok", "price")}
SALES_VIEWS = {
    "revenue": "AggSum([n], C(c, n) * O(o, c) * L(o, p) * p)",
    "orders": "AggSum([c], C(c, n) * O(o, c))",
    "total": "Sum(C(c, n) * O(o, c) * L(o, p) * p)",
}
WEIGHTS_SCHEMA = {"W": ("k", "v")}
POSTS_SCHEMA = {"P": ("community", "post", "score")}


def sales_batch(rng: random.Random, size: int, live: List[Update]) -> List[Update]:
    """Inserts over a small key space (so joins match), deletes of live rows."""
    batch = []
    for _ in range(size):
        if live and rng.random() < 0.3:
            row = live.pop(rng.randrange(len(live)))
            batch.append(Update(-1, row.relation, row.values))
            continue
        relation = rng.choice("COL")
        if relation == "C":
            row = insert("C", rng.randrange(8), rng.choice(("FR", "DE", "JP")))
        elif relation == "O":
            row = insert("O", rng.randrange(20), rng.randrange(8))
        else:
            row = insert("L", rng.randrange(20), rng.randrange(1, 50))
        live.append(row)
        batch.append(row)
    return batch


class Scenario:
    """A session layout, three batches, and how to poison the middle one."""

    ring = INTEGER_RING
    schema: Dict[str, tuple] = {}
    #: Whether the follow-up is checked against per-tuple application (the
    #: reference semantics) or against an unpoisoned twin's ``apply_batch``.
    per_tuple_oracle = True

    def __init__(self, backend: str):
        self.backend = backend

    def views(self) -> Dict[str, tuple]:
        """``name -> (query, backend)``."""
        raise NotImplementedError

    def batches(self):
        """``(setup, poisoned, followup)``."""
        raise NotImplementedError

    def arm(self, session: Session, monkeypatch, dry_run: Callable[[], Session]) -> None:
        raise NotImplementedError

    def build(self, shards: int, views=None) -> Session:
        session = Session(self.schema, ring=self.ring, shards=shards)
        for name, (query, backend) in (views or self.views()).items():
            session.view(name, query, backend=backend)
        return session


class FoldFault(Scenario):
    """Mid-fold: the third fold of the batch dies halfway through its loop."""

    schema = SALES_SCHEMA

    def views(self):
        return {name: (query, self.backend) for name, query in SALES_VIEWS.items()}

    def batches(self):
        rng, live = random.Random(11), []
        return sales_batch(rng, 120, live), sales_batch(rng, 40, live), sales_batch(rng, 40, live)

    def arm(self, session, monkeypatch, dry_run):
        poison_folds(session._groups[self.backend], at_call=3)


class WriteBackFault(Scenario):
    """In ``write_back``: a recompute dies with half its groups written —
    the pointwise HAVING recompute, or a scan recompute whose base copy stays
    correlated with the nested map (``kind`` is the plan's label)."""

    schema = POSTS_SCHEMA
    QUERIES = {
        "pointwise": (
            "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community "
            "HAVING SUM(p.score) > 10"
        ),
        # Per community, the scores below the community's own total.
        "scan": "AggSum([c], P(c, p, s) * (s < Sum(P(c, p2, s2) * s2)) * s)",
    }

    def __init__(self, backend: str, kind: str):
        super().__init__(backend)
        self.kind = kind

    def views(self):
        return {"hot": (self.QUERIES[self.kind], self.backend)}

    def batches(self):
        setup = [insert("P", f"c{community}", post, 4) for community in range(6) for post in range(2)]
        poisoned = [insert("P", f"c{community}", 9, 5) for community in range(6)]  # all cross 10
        followup = [delete("P", "c0", 0, 4), insert("P", "c1", 7, 8), insert("P", "c6", 0, 30)]
        return setup, poisoned, followup

    def arm(self, session, monkeypatch, dry_run):
        group = session._groups[self.backend]
        kinds = {kind for event in group.runtime.plan.events for kind in event.recompute_kinds}
        assert kinds == {self.kind}
        Injector(at_call=1).install(group, {"write_back": "_rwrite"}, _poison_write_back)


class FoldTotalFault(Scenario):
    """In ``fold_total``: the second Kahan fold of the batch raises after its
    entry and compensation term were stored."""

    ring = FLOAT_FIELD
    schema = {"R": ("a",), "S": ("a", "b")}
    #: Per-tuple float folds are uncompensated (and 1e16 tuples too many):
    #: the oracle is a twin that never saw the poisoned batch.
    per_tuple_oracle = False

    def views(self):
        return {"r": ("Sum(R(x))", self.backend), "s": ("Sum(S(x, y))", self.backend)}

    def batches(self):
        # 1e16 + 1 rounds: the setup leaves a non-trivial compensation term.
        setup = [Update(1, "R", (0,), 10**16), insert("R", 1), insert("S", 1, 2)]
        poisoned = [insert("R", 2), insert("S", 2, 3), delete("R", 1)]
        followup = [insert("R", 3), insert("S", 3, 4)]
        return setup, poisoned, followup

    def arm(self, session, monkeypatch, dry_run):
        group = session._groups[self.backend]
        assert group.runtime.plan.kahan
        Injector(at_call=2).install(group, {"fold_total": "_fold_total"}, _poison_fold_total)


class InlineTotalFault(Scenario):
    """After the inline nullary total (the one table write the generated
    module emits itself) stored: the batch's last fold dies."""

    schema = WEIGHTS_SCHEMA

    def views(self):
        return {
            "sum": ("Sum(W(k, v) * v)", self.backend),
            "count": ("Sum(W(k, v))", self.backend),
            "by_key": ("AggSum([k], W(k, v) * v)", self.backend),
        }

    def batches(self):
        setup = [insert("W", f"k{key}", key + 1) for key in range(10)]
        poisoned = [insert("W", f"k{key}", 3) for key in range(5, 15)] + [delete("W", "k0", 1)]
        followup = [insert("W", "k2", 9), delete("W", "k1", 2)]
        return setup, poisoned, followup

    def arm(self, session, monkeypatch, dry_run):
        twin = dry_run()
        counter = poison_folds(twin._groups[self.backend])
        twin.apply_batch(self.batches()[1])
        twin.close()
        poison_folds(session._groups[self.backend], at_call=counter.calls)


class SupportCollectFault(Scenario):
    """In ``SupportTier.collect``: an exhausted support's rebuild raises after
    every fed group was already mutated."""

    schema = POSTS_SCHEMA

    def __init__(self, backend: str, ring_name: str):
        super().__init__(backend)
        self.ring = resolve_semiring(ring_name)
        aggregate = "MIN(p.score)" if ring_name == "min-plus" else "TOPK(3, p.score)"
        #: The stored prefix holds the best scores: the lowest for MIN, the
        #: highest for TOPK.
        self.best = range(11) if ring_name == "min-plus" else range(5, 16)
        self.sql = f"SELECT p.community, {aggregate} FROM P p GROUP BY p.community"

    def views(self):
        return {"best": (self.sql, self.backend)}

    def batches(self):
        # 16 distinct scores overflow the support's capacity (8 / 11);
        # deleting the best 11 (the whole stored prefix) exhausts it.
        setup = [insert("P", "c1", post, float(post)) for post in range(16)]
        setup += [insert("P", "c2", 0, 5.0), insert("P", "c3", 0, 6.0)]
        poisoned = [insert("P", "c2", 1, 3.0), delete("P", "c3", 0, 6.0)]
        poisoned += [delete("P", "c1", post, float(post)) for post in self.best]
        followup = [delete("P", "c1", 4, 4.0), insert("P", "c3", 1, 2.0), insert("P", "c4", 0, 1.0)]
        return setup, poisoned, followup

    def arm(self, session, monkeypatch, dry_run):
        def reload(self, contributions):
            raise InjectedFault("SupportStructure.reload")

        monkeypatch.setattr(SupportStructure, "reload", reload)


class LaterGroupFault(Scenario):
    """In a *later* group, after an earlier group advanced completely."""

    schema = SALES_SCHEMA

    def views(self):
        first = "interpreted" if self.backend == "generated" else "generated"
        views = {f"{name}_first": (query, first) for name, query in SALES_VIEWS.items()}
        views.update({name: (query, self.backend) for name, query in SALES_VIEWS.items()})
        return views

    batches = FoldFault.batches

    def arm(self, session, monkeypatch, dry_run):
        assert list(session._groups)[-1] == self.backend
        poison_folds(session._groups[self.backend], at_call=1)


SITES = {
    "fold_shard": FoldFault,
    "write_back": lambda backend: WriteBackFault(backend, "pointwise"),
    "write_back_scan": lambda backend: WriteBackFault(backend, "scan"),
    "fold_total": FoldTotalFault,
    "inline_total": InlineTotalFault,
    "support_collect_min": lambda backend: SupportCollectFault(backend, "min-plus"),
    "support_collect_top3": lambda backend: SupportCollectFault(backend, "top3"),
    "later_group": LaterGroupFault,
}


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda shards: f"shards{shards}")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("site", SITES)
def test_poisoned_batch_restores_internal_state(site, backend, layout, monkeypatch, apply_per_tuple):
    scenario = SITES[site](backend)
    setup, poisoned, followup = scenario.batches()
    session = scenario.build(layout)
    payloads: List[Any] = []
    for view in session.views.values():
        view.on_change(payloads.append)
    try:
        session.apply_batch(setup)
        before = internal_state(session)
        del payloads[:]
        with monkeypatch.context() as patch:
            scenario.arm(session, patch, lambda: _replay(scenario, layout, setup))
            with pytest.raises((InjectedFault, TypeError)):
                session.apply_batch(poisoned)
            assert internal_state(session) == before
            assert payloads == []  # no CDC for a rolled-back batch
        # The poisoned call number is behind us: the session keeps working,
        # and lands where the per-tuple reference semantics does.
        session.apply_batch(followup)
        reference = scenario.build(
            1, {name: (query, "interpreted") for name, (query, _) in scenario.views().items()}
        )
        if scenario.per_tuple_oracle:
            runtime = reference._groups["interpreted"].runtime
            apply_per_tuple(runtime, setup)
            apply_per_tuple(runtime, followup)
        else:
            reference.apply_batch(setup)
            reference.apply_batch(followup)
        assert session.results() == reference.results()
        internal_state(session)  # indexes still equal a fresh rebuild
    finally:
        session.close()


def _replay(scenario: Scenario, layout, setup) -> Session:
    session = scenario.build(layout)
    session.apply_batch(setup)
    return session


def test_rollback_logs_one_warning(caplog):
    scenario = FoldFault("generated")
    setup, poisoned, _followup = scenario.batches()
    session = scenario.build(1)
    session.apply_batch(setup)
    poison_folds(session._groups["generated"], at_call=3)
    with caplog.at_level(logging.WARNING, logger="repro.session"):
        with pytest.raises(TypeError):
            session.apply_batch(poisoned)
    (record,) = [record for record in caplog.records if record.name == "repro.session"]
    assert record.levelno == logging.WARNING
    size, error, undone, groups = record.args
    assert error == "TypeError" and groups == ["generated"]
    assert 0 < size <= len(poisoned) and undone > 0
    for fragment in ("TypeError", str(size), str(undone), "generated"):
        assert fragment in record.getMessage()
    # A committed batch logs nothing.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.session"):
        session.apply_batch([insert("C", 1, "FR")])
    assert not caplog.records


# ---------------------------------------------------------------------------
# Structural O(batch) guard (counts, no timing)
# ---------------------------------------------------------------------------


def test_transaction_cost_is_independent_of_state_size(monkeypatch):
    """At ~20k stored entries a batch of 10 — committed or rolled back — must
    not copy a table, build one, rebuild an index or serialize the supports,
    and its journal holds no more entries than the batch updated."""
    session = Session(SALES_SCHEMA)
    for name, query in SALES_VIEWS.items():
        session.view(name, query, backend="generated")
    rng = random.Random(5)
    warm = [insert("C", customer, rng.choice(("FR", "DE", "JP"))) for customer in range(2_000)]
    warm += [insert("O", order, rng.randrange(2_000)) for order in range(6_000)]
    session.apply_batch(warm)
    assert session.total_map_entries() >= 20_000
    group = session._groups["generated"]

    def forbidden(name):
        def raiser(*arguments, **keywords):
            raise AssertionError(f"{name} called on the batch path")

        return raiser

    for owner, name in (
        (TriggerRuntime, "backup_tables"),
        (TriggerRuntime, "make_table"),
        (SliceIndexes, "rebuild"),
        (SupportTier, "serialize"),
    ):
        monkeypatch.setattr(owner, name, forbidden(name))
    journalled: List[int] = []
    commit = CompiledExecutor.commit

    def counting_commit(self):
        journalled.append(sum(len(record[3]) for record in self._journal.records))
        commit(self)

    monkeypatch.setattr(CompiledExecutor, "commit", counting_commit)

    batch = [insert("L", order, 7) for order in range(5)] + [insert("O", 7_000 + i, i) for i in range(5)]
    entries_before = group.statistics.entries_updated
    session.apply_batch(batch)
    entries = group.statistics.entries_updated - entries_before
    assert journalled == [entries] and 0 < entries < 200

    # The same shape of batch, poisoned at its last fold.
    counter = poison_folds(group)
    shifted = [Update(update.sign, update.relation, (update.values[0] + 10, update.values[1]))
               for update in batch]
    session.apply_batch(shifted)
    tables = {name: dict(table) for name, table in group.runtime.maps.items()}
    counter.at_call, counter.calls = counter.calls, 0
    again = [Update(update.sign, update.relation, (update.values[0] + 20, update.values[1]))
             for update in batch]
    rollback = CompiledExecutor.rollback
    undone: List[int] = []
    monkeypatch.setattr(
        CompiledExecutor, "rollback", lambda self: undone.append(rollback(self)) or undone[-1]
    )
    with pytest.raises(TypeError):
        session.apply_batch(again)
    assert undone and 0 < undone[0] <= journalled[-1] + 8
    assert {name: dict(table) for name, table in group.runtime.maps.items()} == tables


# ---------------------------------------------------------------------------
# Property: any fold may fail; the batch never half-happens
# ---------------------------------------------------------------------------

DASHBOARD_SCHEMA = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
}
DASHBOARD_SQL = {
    "revenue": (
        "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"
    ),
    "orders": "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck",
    "total_revenue": (
        "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2"
    ),
}


@st.composite
def dashboard_batches(draw, count=3, max_size=12):
    """``count`` insert/delete batches; deletes only remove live rows."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    live: List[Update] = []
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=max_size))):
            if live and rng.random() < 0.35:
                row = live.pop(rng.randrange(len(live)))
                batch.append(Update(-1, row.relation, row.values))
                continue
            relation = rng.choice(("Customer", "Orders", "Lineitem"))
            if relation == "Customer":
                row = insert(relation, rng.randrange(4), rng.choice(("FR", "DE")))
            elif relation == "Orders":
                row = insert(relation, rng.randrange(6), rng.randrange(4))
            else:
                row = insert(relation, rng.randrange(6), rng.randrange(1, 9), rng.randrange(1, 4))
            live.append(row)
            batch.append(row)
        batches.append(batch)
    return batches


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches=dashboard_batches(), at_call=st.integers(min_value=1, max_value=24))
def test_fault_at_any_fold_call_never_half_applies(backend, batches, at_call):
    """One fault at fold call ``at_call`` of the middle batch (none if the
    batch makes fewer calls): the state after a failed batch is the state
    before it, and the next batch matches direct evaluation."""
    session = Session(DASHBOARD_SCHEMA)
    oracles = {}
    for name, sql in DASHBOARD_SQL.items():
        session.view(name, sql, backend=backend)
        oracles[name] = NaiveReevaluation(sql_to_agca(sql, DASHBOARD_SCHEMA), DASHBOARD_SCHEMA)
    first, middle, last = batches
    session.apply_batch(first)
    before = internal_state(session)
    injector = poison_folds(session._groups[backend], at_call)
    try:
        session.apply_batch(middle)
        applied = [first, middle, last]
    except TypeError:
        assert internal_state(session) == before
        applied = [first, last]
    injector.at_call = None
    session.apply_batch(last)
    internal_state(session)
    for name, oracle in oracles.items():
        for batch in applied:
            oracle.apply_batch(batch)
        assert results_agree(session[name].result(), oracle.result()), name


def grouped_rows(count, offset=0):
    return [Update(1, "S", ((value + offset) % 9, value % 5)) for value in range(count)]


@pytest.mark.parametrize("executor", BACKENDS)
def test_poisoned_batch_leaves_the_session_as_its_untouched_twin(executor):
    """A batch whose fold fails partway leaves the session as it was —
    tables, results, history, no CDC — and the session keeps folding exactly
    like a twin that never saw the batch."""
    base, base_cdc = grouped_session(executor)
    poisoned, poisoned_cdc = grouped_session(executor)
    for session in (base, poisoned):
        session.apply_batch(grouped_rows(120))
    runtime = poisoned._groups[executor].runtime
    tables = {name: dict(table) for name, table in runtime.maps.items()}
    history = list(poisoned._history)
    results = poisoned.results()
    poison_folds(poisoned._groups[executor], at_call=1)
    with pytest.raises(TypeError):
        poisoned.apply_batch(grouped_rows(40, offset=3))
    assert {name: dict(table) for name, table in runtime.maps.items()} == tables
    assert poisoned.results() == results == base.results()
    assert poisoned._history == history
    assert poisoned_cdc == base_cdc
    for session in (base, poisoned):
        session.apply_batch(grouped_rows(80, offset=5))
    assert poisoned.results() == base.results()
    assert poisoned_cdc == base_cdc
