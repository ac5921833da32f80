"""Type-state analysis instantiations of the SWIFT framework.

Two instantiations are provided, mirroring the paper:

* the *simple* analysis of Figures 2 and 3 — abstract states
  ``(h, t, a)`` with a must-alias set of variables
  (:mod:`repro.typestate.td_analysis`, :mod:`repro.typestate.bu_analysis`);
* the *full* analysis used in the evaluation (Section 6.1) — abstract
  states ``(h, t, a, n)`` with must **and** must-not sets of access-path
  expressions up to two fields, plus may-alias reasoning
  (:mod:`repro.typestate.full`).

Type-state properties themselves (the DFAs: File, Iterator, Connection,
…) live in :mod:`repro.typestate.dfa` and
:mod:`repro.typestate.properties`.
"""

from repro.typestate.dfa import TSFunction, TypestateProperty
from repro.typestate.properties import (
    CONNECTION_PROPERTY,
    ENUMERATION_PROPERTY,
    FILE_PROPERTY,
    ITERATOR_PROPERTY,
    KEYSTORE_PROPERTY,
    PRINTSTREAM_PROPERTY,
    SIGNATURE_PROPERTY,
    SOCKET_PROPERTY,
    STACK_PROPERTY,
    URLCONN_PROPERTY,
    VECTOR_PROPERTY,
    all_properties,
    property_by_name,
)
from repro.typestate.states import BOOTSTRAP_SITE, AbstractState, bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD
from repro.typestate.bu_analysis import (
    ConstRelation,
    SimpleTypestateBU,
    TransformerRelation,
)
from repro.typestate.client import TypestateReport, run_typestate
from repro.typestate.multi import MultiPropertyReport, run_multi_property

__all__ = [
    "AbstractState",
    "BOOTSTRAP_SITE",
    "CONNECTION_PROPERTY",
    "ConstRelation",
    "ENUMERATION_PROPERTY",
    "FILE_PROPERTY",
    "ITERATOR_PROPERTY",
    "KEYSTORE_PROPERTY",
    "MultiPropertyReport",
    "PRINTSTREAM_PROPERTY",
    "SIGNATURE_PROPERTY",
    "SOCKET_PROPERTY",
    "STACK_PROPERTY",
    "SimpleTypestateBU",
    "SimpleTypestateTD",
    "TSFunction",
    "TransformerRelation",
    "TypestateProperty",
    "TypestateReport",
    "URLCONN_PROPERTY",
    "VECTOR_PROPERTY",
    "all_properties",
    "bootstrap_state",
    "property_by_name",
    "run_multi_property",
    "run_typestate",
]
