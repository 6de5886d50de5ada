"""Per-customer 'same nation' analytics (Examples 5.2 / 6.2 / 6.5 of the paper).

The query asks, for each customer, how many customers share their nation —
a self-join with group-by.  The example shows the symbolic machinery (the
delta, the second delta and their degrees), maintains a lattice-aggregate
panel (top-3 posts per community by score, plus MIN/MAX score bounds) under
leader deletions, and then maintains the query over a churn stream of
registrations and departures, cross-checking the recursive engine against
full re-evaluation.

Run with:  python examples/social_analytics.py
"""

import random

from repro import (
    NaiveReevaluation,
    Session,
    UpdateEvent,
    degree,
    delta,
    insert,
    delete,
    parse,
    resolve_semiring,
    simplify,
    to_string,
)

SCHEMA = {"C": ("cid", "nation")}
QUERY_TEXT = "AggSum([c], C(c, n) * C(c2, n2) * (n = n2))"
NATIONS = ["FRANCE", "GERMANY", "JAPAN", "BRAZIL"]

POSTS_SCHEMA = {"P": ("community", "post", "score")}
COMMUNITIES = ["graphs", "algebra"]


def show_symbolic_deltas() -> None:
    query = parse(QUERY_TEXT)
    print("Query           :", to_string(query), f"(degree {degree(query)})")
    event1 = UpdateEvent.symbolic(1, "C", 2, prefix="__u1")
    first = simplify(delta(query, event1), bound_vars=event1.argument_names,
                     needed_vars=set(event1.argument_names) | {"c"})
    print("First delta     :", to_string(first), f"(degree {degree(first)})")
    event2 = UpdateEvent.symbolic(1, "C", 2, prefix="__u2")
    second = simplify(delta(first, event2),
                      bound_vars=event1.argument_names + event2.argument_names,
                      needed_vars=set(event1.argument_names + event2.argument_names) | {"c"})
    print("Second delta    :", to_string(second), f"(degree {degree(second)})")
    print("The second delta no longer mentions C: it is a pure function of the updates.\n")


def run_churn_stream(members: int = 40, steps: int = 300, seed: int = 3) -> None:
    # The session's compiled view (the paper's recursive scheme) serves the
    # analytics; a standalone naive re-evaluation engine fed the same stream
    # cross-checks it.
    session = Session(SCHEMA)
    incremental = session.view("same_nation", QUERY_TEXT)
    reference = NaiveReevaluation(parse(QUERY_TEXT), SCHEMA)

    rng = random.Random(seed)
    population = {}
    next_cid = 0
    for _ in range(steps):
        if population and rng.random() < 0.35:
            cid = rng.choice(list(population))
            update = delete("C", cid, population.pop(cid))
        else:
            nation = rng.choice(NATIONS)
            population[next_cid] = nation
            update = insert("C", next_cid, nation)
            next_cid += 1
        session.apply(update)
        reference.apply(update)

    assert incremental.result() == reference.result()
    by_nation = {}
    for cid, nation in population.items():
        by_nation.setdefault(nation, []).append(cid)
    print(f"After {steps} updates, {len(population)} customers remain:")
    for nation, members_of_nation in sorted(by_nation.items()):
        sample = members_of_nation[0]
        maintained = incremental.result()[(sample,)]
        print(
            f"  {nation:<8} {len(members_of_nation):>3} customers; "
            f"maintained same-nation count for customer {sample}: {maintained}"
        )
    spent = session.statistics.seconds_per_update() * 1e6
    spent_reference = reference.statistics.seconds_per_update() * 1e6
    print(
        f"\nPer-update time: the compiled session {spent:.1f} µs, "
        f"naive re-evaluation {spent_reference:.1f} µs on this stream."
    )


def run_lattice_panel(posts_per_community: int = 8, seed: int = 11) -> None:
    # Lattice aggregates ride the same Session machinery — the aggregation
    # semantics live in the coefficient structure, so each panel view gets a
    # session created over its semiring (min-plus / max-plus / top-3).
    top3 = Session(POSTS_SCHEMA, ring=resolve_semiring("top3"))
    leaderboard = top3.view(
        "top_posts", "SELECT community, TOPK(3, score) FROM P GROUP BY community"
    )
    floors = Session(POSTS_SCHEMA, ring=resolve_semiring("min-plus"))
    floor = floors.view(
        "lowest_score", "SELECT community, MIN(score) FROM P GROUP BY community"
    )
    ceilings = Session(POSTS_SCHEMA, ring=resolve_semiring("max-plus"))
    ceiling = ceilings.view(
        "highest_score", "SELECT community, MAX(score) FROM P GROUP BY community"
    )
    sessions = (top3, floors, ceilings)

    rng = random.Random(seed)
    scores = {}  # (community, post) -> score, the live rows for labelling
    for community in COMMUNITIES:
        for index in range(posts_per_community):
            post = f"{community[0]}{index}"
            score = float(rng.randrange(10, 100))
            scores[(community, post)] = score
            for session in sessions:
                session.apply(insert("P", community, post, score))

    def print_panel(header: str) -> None:
        print(header)
        ranked = leaderboard.result_mapping()
        for community in COMMUNITIES:
            top = ranked.get((community,), ())
            posts = []
            remaining = dict(scores)
            for value in top:
                post = next(
                    p for (c, p), s in sorted(remaining.items())
                    if c == community and s == value
                )
                del remaining[(community, post)]
                posts.append(f"{post}({value:.0f})")
            low = floor.result_mapping()[(community,)]
            high = ceiling.result_mapping()[(community,)]
            print(
                f"  {community:<8} top-3 posts: {', '.join(posts):<24} "
                f"score range {low:.0f}..{high:.0f}"
            )

    print_panel("Top-3 posts per community by score (maintained incrementally):")

    # Delete each community's current leader: a proper-semiring deletion — no
    # additive inverse to fold in, the maintenance tier re-derives the groups.
    for community in COMMUNITIES:
        leader_score = leaderboard.result_mapping()[(community,)][0]
        post = next(
            p for (c, p), s in scores.items() if c == community and s == leader_score
        )
        del scores[(community, post)]
        for session in sessions:
            session.apply(delete("P", community, post, leader_score))
        print(f"  deleted {community}'s leading post {post} ({leader_score:.0f})")
    print_panel("After deleting the leaders, the panel re-ranks:")
    print()


if __name__ == "__main__":
    show_symbolic_deltas()
    run_lattice_panel()
    run_churn_stream()
