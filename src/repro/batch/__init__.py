"""Batch negotiation over capability equivalence classes.

The §4 pipeline is a pure function of (document, client capabilities,
profile, tariffs) until step 5 touches shared ledgers, and the
fingerprint keys of :mod:`repro.perf.fingerprint` already exclude
client identity — so N pending requests whose fingerprints agree are
*one* negotiation repeated N times.  This package canonicalises
pending requests into those classes (:func:`request_class_key`),
plans each class once — one offer-space build, one best-first
classification stream replayed by every member — and fans the class
plan out to each member's own step-5 commitment walk
(:func:`negotiate_batch`).

The fan-out is byte-exact with running ``QoSManager.negotiate`` per
request in the same order: walks run in submission order against the
same ledger states, holders come from the same counter, and every
member replays the same classified offers in the same order, so the
per-round ``(status, offer id, attempts)`` signature cannot differ.
"""

from .classes import BatchRequest, request_class_key
from .engine import negotiate_batch

__all__ = ["BatchRequest", "negotiate_batch", "request_class_key"]
