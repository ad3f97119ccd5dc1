"""Self-adaptive SDN congestion resolution via evolved link-weight formulas.

Annotations are evaluated where they stand, without ``from __future__
import annotations``: ``typing.NamedTuple`` compiles every string
annotation of a record on each import. Abstract types come from
``collections.abc``, not ``typing``, which caches its subscriptions: a
cached ``typing.Sequence[Flow]`` would keep the classes of every earlier
import of this package alive.
"""

__version__ = "0.1.0"
