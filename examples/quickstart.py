"""Quickstart: one Session, many incrementally maintained views.

This walks through the Example 1.2 query of the paper —

    SELECT COUNT(*) FROM R r1, R r2 WHERE r1.A = r2.A

— first through the multi-view :class:`repro.Session` facade (the primary
API: register views, stream updates, subscribe to change deltas), then
through the three low-level engines to show that every maintenance strategy
agrees while only the paper's recursive scheme never touches the base
relation after compilation.

Run with:  python examples/quickstart.py
"""

import json

from repro import (
    ClassicalIVM,
    Database,
    NaiveReevaluation,
    RecursiveIVM,
    Session,
    delete,
    evaluate,
    insert,
    parse,
)
from repro.gmr.records import Record

QUERY_TEXT = "Sum(R(x) * R(y) * (x = y))"


def session_walkthrough() -> None:
    print("=== The Session facade (primary API) ===")
    session = Session({"R": ("A",)})
    selfjoin = session.view("selfjoin", QUERY_TEXT)
    count = session.view("count", "Sum(R(x))")

    selfjoin.on_change(lambda changes: print(f"  selfjoin changed by {changes[()]:+d}"))

    for update in [insert("R", "c"), insert("R", "c"), insert("R", "d"), delete("R", "d")]:
        print(f"applying {update!r}:")
        session.apply(update)
        print(f"  results: {session.results()}")

    # A snapshot is plain data: persist it as JSON, revive it from the text.
    persisted = json.dumps(session.snapshot())
    restored = Session.restore(json.loads(persisted))
    assert restored.results() == session.results()
    print(
        f"snapshot/restore round-trip through {len(persisted)} bytes of JSON: "
        f"selfjoin={restored['selfjoin'].result()}, "
        f"count={restored['count'].result()}\n"
    )


def engine_walkthrough() -> None:
    print("=== The low-level engines ===")
    schema = {"R": ("A",)}
    query = parse(QUERY_TEXT)

    # --- 1. Direct evaluation on a stored database --------------------------------
    db = Database(schema)
    db.load("R", [("c",), ("c",), ("d",)])
    print("Q on {c, c, d}  =", evaluate(query, db)[Record()])

    # --- 2. The three maintenance engines -----------------------------------------
    engines = {
        "recursive (paper)": RecursiveIVM(query, schema, backend="generated"),
        "classical IVM": ClassicalIVM(query, schema),
        "naive re-evaluation": NaiveReevaluation(query, schema),
    }

    stream = [
        insert("R", "c"),
        insert("R", "c"),
        insert("R", "d"),
        insert("R", "c"),
        delete("R", "d"),
        insert("R", "c"),
        delete("R", "c"),
    ]

    print("\nupdate      " + "".join(f"{name:>22}" for name in engines))
    for update in stream:
        row = [f"{str(update):<12}"]
        for engine in engines.values():
            engine.apply(update)
            row.append(f"{engine.result():>22}")
        print("".join(row))

    # --- 3. What the recursive engine compiled -------------------------------------
    recursive = engines["recursive (paper)"]
    print("\nCompiled view hierarchy and triggers:")
    print(recursive.explain())

    print("\nGenerated trigger code (excerpt):")
    source = recursive.generated_source()
    print("\n".join(source.splitlines()[:20]))


def main() -> None:
    session_walkthrough()
    engine_walkthrough()


if __name__ == "__main__":
    main()
