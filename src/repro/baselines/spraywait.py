"""Spray-and-Wait (Spyropoulos et al., WDTN 2005), landmark form.

A classic bounded-replication reference outside the paper's comparison set
(which is single-copy), useful to bracket the single-copy protocols: each
packet starts with ``N_COPIES`` logical copies; *binary* spraying gives half
of a carrier's copies to each encountered node until one copy remains, after
which the carrier waits to deliver directly at the destination landmark.

The copy budget is tracked in ``packet.meta["sw_copies"]``; replicas share
the packet id, so the engine's delivered/dropped dedupe machinery applies.
"""

from __future__ import annotations

import copy

from repro.sim.engine import RoutingProtocol, World
from repro.sim.entities import LandmarkStation, MobileNode
from repro.sim.packets import Packet

META_COPIES = "sw_copies"
#: logical copies a new packet starts with
N_COPIES = 8


class SprayAndWaitProtocol(RoutingProtocol):
    """Binary Spray-and-Wait with landmark destinations."""

    name = "SprayWait"
    uses_contacts = True

    # -- helpers --------------------------------------------------------------------
    def _copies(self, p: Packet) -> int:
        return int(p.meta.get(META_COPIES, N_COPIES))

    def _split_to(self, world: World, packet: Packet, holder_buffer, target_buffer) -> bool:
        """Binary split: half the copies move to the target as a replica."""
        copies = self._copies(packet)
        if copies < 2:
            return False
        if not target_buffer.can_accept(packet):
            return False
        give = copies // 2
        clone = copy.copy(packet)
        clone.meta = dict(packet.meta)
        clone.visited = list(packet.visited)
        clone.meta[META_COPIES] = give
        packet.meta[META_COPIES] = copies - give
        if target_buffer.add(clone):
            world.metrics.on_forward()
            return True
        return False

    # -- hooks -------------------------------------------------------------------------
    def on_packet_generated(
        self, world: World, station: LandmarkStation, packet: Packet, t: float
    ) -> None:
        packet.meta[META_COPIES] = N_COPIES
        self._spray_from_station(world, station)

    def _spray_from_station(self, world: World, station: LandmarkStation) -> None:
        nodes = world.connected_nodes(station)
        if not nodes:
            return
        for p in station.buffer.packets():
            for nd in nodes:
                if p.pid in nd.buffer:
                    continue
                if self._copies(p) >= 2:
                    self._split_to(world, p, station.buffer, nd.buffer)
                else:
                    # last copy: move it onto a carrier outright
                    if world.station_to_node(station, nd, p):
                        break

    def on_visit_start(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        # delivery at the destination landmark is handled by the engine;
        # the station sprays its queued packets onto the arriving carrier
        self._spray_from_station(world, station)

    def on_contact(
        self, world: World, a: MobileNode, b: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        for holder, peer in ((a, b), (b, a)):
            for p in holder.buffer.packets():
                if not p.in_flight:
                    continue
                if p.pid in peer.buffer:
                    continue
                self._split_to(world, p, holder.buffer, peer.buffer)
