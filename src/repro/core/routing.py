"""The SQPeer Query-Routing Algorithm (paper Section 2.3).

Pseudocode from the paper::

    Input:  a query pattern AQ
    Output: an annotated query pattern AQ'
    1. AQ' := empty annotations for AQ
    2. for all query path patterns AQ_i in AQ:
         for all active-schemas AS_j:
           for all active-schema path patterns AS_jk in AS_j:
             if isSubsumed(AS_jk, AQ_i):
               annotate AQ'_i with peer P_j
    3. return AQ'

The implementation additionally records, per annotation, the subquery
rewritten for that peer (the "rewrite accordingly the query sent to a
peer" step the paper delegates to SWIM).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import RoutingError
from ..rdf.schema import Schema
from ..rql.pattern import QueryPattern
from ..rvl.active_schema import ActiveSchema
from ..subsumption.rewriter import rewrite_for_peer
from .annotations import AnnotatedQueryPattern, PeerAnnotation


def route_query(
    query_pattern: QueryPattern,
    advertisements: Iterable[ActiveSchema],
    schema: Optional[Schema] = None,
) -> AnnotatedQueryPattern:
    """Annotate each path pattern with the peers able to answer it.

    Args:
        query_pattern: The semantic pattern of the query.
        advertisements: The active-schemas known to the routing peer
            (all of a SON's at a super-peer; the neighbourhood's at an
            ad-hoc peer).  Each must carry a ``peer_id``.
        schema: The community schema; defaults to the query pattern's.

    Returns:
        The annotated query pattern.  Patterns no advertisement can
        answer stay unannotated and later become plan holes.

    Raises:
        RoutingError: If an advertisement lacks a peer id or commits to
            a different community schema.
    """
    schema = schema or query_pattern.schema
    annotated = AnnotatedQueryPattern(query_pattern)
    advertisements = list(advertisements)
    if not advertisements:
        # nothing to annotate: skip the subsumption loop entirely (the
        # common churn/negative case; callers cache the empty answer)
        return annotated
    for pattern in query_pattern:
        for advertisement in advertisements:
            if advertisement.peer_id is None:
                raise RoutingError("advertisement without peer id cannot be routed to")
            if advertisement.schema_uri != schema.namespace.uri:
                # different SON: irrelevant by construction
                continue
            # ``None`` when no advertised path is subsumed by the pattern
            rewritten = rewrite_for_peer(pattern, advertisement, schema)
            if rewritten is None:
                continue
            annotated.annotate(
                pattern,
                PeerAnnotation(
                    peer_id=advertisement.peer_id,
                    rewritten=rewritten,
                    exact=rewritten.schema_path == pattern.schema_path,
                ),
            )
    return annotated
