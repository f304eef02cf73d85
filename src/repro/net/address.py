"""Addresses.

Horus has a *single* address format shared by every layer — the paper
(Section 12) calls this out as the thing that makes layers mixable,
in contrast to STREAMS and the x-kernel where each module invents its
own addressing.  Two address kinds exist:

* :class:`EndpointAddress` — names one communication endpoint.  Used for
  membership: views are lists of endpoint addresses.
* :class:`GroupAddress` — names a group.  Messages are addressed to
  groups, never directly to endpoints (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, TypeVar

_WIRE_ENCODING = "utf-8"

#: Bound on each intern table; a full table is emptied and refilled.
INTERN_LIMIT = 4096

_A = TypeVar("_A")

#: Process-wide intern tables, keyed by wire encoding.  Interning never
#: changes a result (equality and hashing are by value); it only lets
#: comparisons on the receive path succeed by identity.
_ENDPOINTS: Dict[bytes, "EndpointAddress"] = {}
_GROUPS: Dict[bytes, "GroupAddress"] = {}


def _intern(table: Dict[bytes, _A], key: bytes, address: _A) -> _A:
    """The canonical instance for ``key``, adopting ``address`` if new."""
    if len(table) >= INTERN_LIMIT:
        table.clear()
    return table.setdefault(key, address)


@dataclass(frozen=True, order=True)
class EndpointAddress:
    """Globally unique name of a communication endpoint.

    ``node`` identifies the simulated process/machine; ``port``
    distinguishes multiple endpoints within one process (a process may
    stack several endpoints, Section 4).

    Decoded addresses are interned (see :meth:`unmarshal`), and local
    ones made with :meth:`interned` share the same table, so the view
    membership tests and per-member dict lookups on the receive path
    usually match by identity instead of calling ``__eq__``.  Equality
    and hashing are unchanged: an address built any other way is still
    equal to its interned twin.
    """

    node: str
    port: int = 0

    def marshal(self) -> bytes:
        """Encode for inclusion in a wire header."""
        return f"{self.node}:{self.port}".encode(_WIRE_ENCODING)

    @classmethod
    def unmarshal(cls, data: bytes) -> "EndpointAddress":
        """Decode an address previously produced by :meth:`marshal`.

        Returns the interned instance for these bytes.
        """
        data = bytes(data)
        address = _ENDPOINTS.get(data)
        if address is None:
            node, _, port = data.decode(_WIRE_ENCODING).rpartition(":")
            address = _intern(_ENDPOINTS, data, cls(node=node, port=int(port)))
        return address

    @classmethod
    def interned(cls, node: str, port: int = 0) -> "EndpointAddress":
        """The interned address of ``node:port`` (what decoding returns)."""
        address = cls(node=node, port=port)
        return _intern(_ENDPOINTS, address.marshal(), address)

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


@dataclass(frozen=True, order=True)
class GroupAddress:
    """Name of a process group.

    The group address is what applications send to; the set of endpoints
    behind it is tracked by the membership layers.
    """

    name: str

    def marshal(self) -> bytes:
        """Encode for inclusion in a wire header."""
        return self.name.encode(_WIRE_ENCODING)

    @classmethod
    def unmarshal(cls, data: bytes) -> "GroupAddress":
        """Decode an address previously produced by :meth:`marshal`.

        Returns the interned instance for these bytes.
        """
        data = bytes(data)
        address = _GROUPS.get(data)
        if address is None:
            address = _intern(_GROUPS, data, cls(name=data.decode(_WIRE_ENCODING)))
        return address

    @classmethod
    def interned(cls, name: str) -> "GroupAddress":
        """The interned address of group ``name`` (what decoding returns)."""
        address = cls(name=name)
        return _intern(_GROUPS, address.marshal(), address)

    def __str__(self) -> str:
        return self.name
