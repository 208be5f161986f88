"""Parsers for raw mobility logs (DART-style and DNET-style).

We cannot ship the proprietary Dartmouth (DART) and DieselNet (DNET) traces,
so the synthetic mobility models in :mod:`repro.mobility.synthetic` emit raw
logs in the same *shape* as the originals, and these parsers + the
preprocessing pipeline recover clean :class:`~repro.mobility.trace.Trace`
objects — exercising the exact code path the paper describes in
Section III-B.1 (merging neighbouring records, dropping short connections,
dropping inactive nodes, clustering APs into landmarks).

Formats
-------
DART-style (campus WLAN association log), one event per line::

    <node_id>,<ap_name>,<start_unix>,<end_unix>

DNET-style (bus AP-scan log with GPS), one sighting per line::

    <bus_id>,<ap_id>,<lat>,<lon>,<start_unix>,<end_unix>
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, TextIO, Tuple, Union

from repro.mobility.trace import VisitRecord


class _SightingFields(NamedTuple):
    node: int
    ap: str
    lat: float
    lon: float
    start: float
    end: float


class ApSighting(_SightingFields):
    """A raw AP association record with coordinates (DNET-style)."""

    __slots__ = ()

    def __new__(
        cls, node: int, ap: str, lat: float, lon: float, start: float, end: float
    ) -> "ApSighting":
        self = tuple.__new__(cls, (node, ap, lat, lon, start, end))
        if end < start:
            raise ValueError(f"sighting ends before it starts: {self}")
        return self

    @property
    def duration(self) -> float:
        return self.end - self.start


class _AssociationFields(NamedTuple):
    node: int
    ap: str
    start: float
    end: float


class RawAssociation(_AssociationFields):
    """A raw AP association record without coordinates (DART-style)."""

    __slots__ = ()

    def __new__(cls, node: int, ap: str, start: float, end: float) -> "RawAssociation":
        self = tuple.__new__(cls, (node, ap, start, end))
        if end < start:
            raise ValueError(f"association ends before it starts: {self}")
        return self

    @property
    def duration(self) -> float:
        return self.end - self.start


ParseError = ValueError


def _lines(source: Union[str, TextIO, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source


def parse_dart_log(source: Union[str, TextIO, Iterable[str]]) -> List[RawAssociation]:
    """Parse a DART-style association log.

    Blank lines and lines starting with ``#`` are skipped.  Malformed lines
    raise :class:`ParseError` with the 1-based line number.
    """
    out: List[RawAssociation] = []
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            node = int(parts[0])
            ap = parts[1]
            start = float(parts[2])
            end = float(parts[3])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        out.append(RawAssociation(node=node, ap=ap, start=start, end=end))
    return out


def parse_dnet_log(source: Union[str, TextIO, Iterable[str]]) -> List[ApSighting]:
    """Parse a DNET-style AP sighting log with GPS coordinates."""
    out: List[ApSighting] = []
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            out.append(
                ApSighting(
                    node=int(parts[0]),
                    ap=parts[1],
                    lat=float(parts[2]),
                    lon=float(parts[3]),
                    start=float(parts[4]),
                    end=float(parts[5]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return out


def write_dart_log(records: Iterable[RawAssociation]) -> str:
    """Serialise associations back to the DART-style text format."""
    lines = ["# node,ap,start,end"]
    lines.extend(f"{r.node},{r.ap},{r.start:.1f},{r.end:.1f}" for r in records)
    return "\n".join(lines) + "\n"


def write_dnet_log(records: Iterable[ApSighting]) -> str:
    """Serialise sightings back to the DNET-style text format."""
    lines = ["# bus,ap,lat,lon,start,end"]
    lines.extend(
        f"{r.node},{r.ap},{r.lat:.6f},{r.lon:.6f},{r.start:.1f},{r.end:.1f}"
        for r in records
    )
    return "\n".join(lines) + "\n"


def associations_to_visits(
    associations: Iterable[RawAssociation],
    ap_to_landmark: Dict[str, int],
) -> List[VisitRecord]:
    """Map raw AP associations onto landmark visit records.

    APs missing from ``ap_to_landmark`` are dropped (the paper removes APs
    that "did not appear frequently").
    """
    out: List[VisitRecord] = []
    for rec in associations:
        lm = ap_to_landmark.get(rec.ap)
        if lm is None:
            continue
        out.append(VisitRecord(start=rec.start, end=rec.end, node=rec.node, landmark=lm))
    return out


def sightings_to_associations(
    sightings: Iterable[ApSighting],
) -> Tuple[List[RawAssociation], Dict[str, Tuple[float, float]]]:
    """Strip coordinates from sightings, returning associations + AP positions."""
    assocs: List[RawAssociation] = []
    coords: Dict[str, Tuple[float, float]] = {}
    for s in sightings:
        assocs.append(RawAssociation(node=s.node, ap=s.ap, start=s.start, end=s.end))
        coords[s.ap] = (s.lat, s.lon)
    return assocs, coords
