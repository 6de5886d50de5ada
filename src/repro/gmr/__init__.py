"""The ring of databases (Section 3): generalized multiset relations.

* :class:`repro.gmr.records.Record` — schema-polymorphic tuples (partial
  functions from column names to values) and their natural join, i.e. the
  monoid ``Sng∅`` of Section 3.1.
* :class:`repro.gmr.relation.GMR` — generalized multiset relations ``A[T]``:
  finitely-supported multiplicity functions with total ``+`` (generalized
  union) and ``*`` (generalized natural join) and an additive inverse.
* :class:`repro.gmr.parametrized.PGMR` — parametrized gmrs ``=>A[T]``
  (Section 3.2), the carrier of AGCA query meanings.
* :class:`repro.gmr.database.Database` / :class:`repro.gmr.database.Update` —
  named relations and single-tuple update events ``±R(t)``;
  :class:`repro.gmr.database.Delta` — a batch as one ``∆D``.
* :mod:`repro.gmr.algebra_bridge` — the classical multiset relational algebra
  operators (σ, π, ρ, ⋈, ∪) expressed on top of gmrs (Section 5).
"""

from repro.gmr.records import Record
from repro.gmr.relation import GMR
from repro.gmr.parametrized import PGMR
from repro.gmr.database import Database, Delta, Update, coalesce_updates, insert, delete

__all__ = [
    "Record", "GMR", "PGMR", "Database", "Delta", "Update", "insert", "delete",
    "coalesce_updates",
]
