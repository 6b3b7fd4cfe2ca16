"""A shim: a tenant's queries go to its port, which is its analysis server.

Per-shard results are not mergeable bit-for-bit (history normalization is
a cumulative minimum over all ranks in canonical order), so there is no
merge: the shards fold sub-batches into the port's one store.  The
end-to-end benchmark still imports :class:`QueryMerger` and wraps
:meth:`QueryMerger.refresh`; it goes with the benchmark's next schema
change (ROADMAP item 8).  Nothing in ``src/`` builds one.
"""

from __future__ import annotations


class QueryMerger:
    """Kept for the benchmark's span wrapper; :meth:`refresh` is the port."""

    def __init__(self, port) -> None:
        self.port = port

    def refresh(self):
        """The tenant's port — its job's analysis server."""
        return self.port
