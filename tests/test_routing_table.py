"""Tests for distance-vector routing tables (repro.core.routing_table)."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bandwidth import BackwardReport
from repro.core.routing_table import RouteEntry, RoutingTable, TableSnapshot


def table(lid=0, h=1.0):
    return RoutingTable(lid, switch_hysteresis=h)


class TestRouteEntry:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            RouteEntry(dest=1, next_hop=2, delay=-1.0)

    def test_frozen(self):
        e = RouteEntry(dest=1, next_hop=2, delay=3.0)
        with pytest.raises(AttributeError):
            e.delay = 5.0

    @pytest.mark.parametrize("record", [
        RouteEntry(1, 2, 3.0),
        RouteEntry(dest=4, next_hop=5, delay=0.0, backup_next_hop=6, backup_delay=7.5),
        TableSnapshot(3, 9, (RouteEntry(1, 2, 3.0), RouteEntry(4, 4, 1.0, 2, 9.0))),
        TableSnapshot(origin=0, seq=0, entries=()),
        BackwardReport(observer=2, target=1, seq=3, bandwidth=7.5),
    ])
    def test_records_pickle_round_trip(self, record):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert back == record and type(back) is type(record)

    def test_records_keep_their_fields_and_order(self):
        assert RouteEntry._fields == (
            "dest", "next_hop", "delay", "backup_next_hop", "backup_delay"
        )
        assert TableSnapshot._fields == ("origin", "seq", "entries")
        assert BackwardReport._fields == ("observer", "target", "seq", "bandwidth")
        e = RouteEntry(1, 2, 3.0)
        assert (e.backup_next_hop, e.backup_delay) == (None, math.inf)
        with pytest.raises(AttributeError):
            e.extra = 1
        assert TableSnapshot(0, 1, (e,)).n_entries == 1
        assert BackwardReport(2, 1, 3, 7.5).n_entries == 1


class TestDirectLinks:
    def test_set_direct_link(self):
        t = table()
        t.set_direct_link(1, 10.0)
        assert t.next_hop(1) == 1
        assert t.delay_to(1) == 10.0

    def test_self_link_ignored(self):
        t = table(lid=3)
        t.set_direct_link(3, 1.0)
        assert len(t) == 0

    def test_direct_link_refresh_updates_delay(self):
        t = table()
        t.set_direct_link(1, 10.0)
        t.set_direct_link(1, 20.0)
        assert t.delay_to(1) == 20.0

    def test_direct_link_does_not_displace_better_route(self):
        t = table()
        # learned multi-hop route to 1 via 2 with delay 5
        t._offer_route(1, 2, 5.0)
        t.set_direct_link(1, 50.0)
        assert t.next_hop(1) == 2
        assert t.delay_to(1) == 5.0
        # but the direct link is kept as backup
        assert t.lookup(1).backup_next_hop == 1

    def test_direct_link_swaps_in_when_better(self):
        t = table()
        t._offer_route(1, 2, 50.0)
        t.set_direct_link(1, 5.0)
        assert t.next_hop(1) == 1


class TestMerging:
    def _snap(self, origin, seq, entries):
        return TableSnapshot(
            origin=origin,
            seq=seq,
            entries=tuple(RouteEntry(dest=d, next_hop=h, delay=dl) for d, h, dl in entries),
        )

    def test_learns_new_destination(self):
        t = table(lid=0)
        snap = self._snap(origin=1, seq=0, entries=[(2, 2, 7.0)])
        assert t.merge_snapshot(snap, link_delay=3.0)
        assert t.next_hop(2) == 1
        assert t.delay_to(2) == 10.0

    def test_origin_reachable_after_merge(self):
        t = table(lid=0)
        t.merge_snapshot(self._snap(1, 0, []), link_delay=3.0)
        assert t.delay_to(1) == 3.0

    def test_own_id_skipped(self):
        t = table(lid=0)
        t.merge_snapshot(self._snap(1, 0, [(0, 2, 1.0)]), link_delay=3.0)
        assert t.delay_to(0) == 0.0
        assert t.lookup(0) is None

    def test_split_horizon(self):
        """Routes the neighbour has *through us* are ignored."""
        t = table(lid=0)
        t.merge_snapshot(self._snap(1, 0, [(5, 0, 2.0)]), link_delay=3.0)
        assert t.lookup(5) is None

    def test_stale_snapshot_rejected(self):
        t = table(lid=0)
        t.merge_snapshot(self._snap(1, 5, [(2, 2, 7.0)]), link_delay=3.0)
        assert not t.merge_snapshot(self._snap(1, 4, [(2, 2, 1.0)]), link_delay=3.0)

    def test_equal_seq_accepted(self):
        # refreshes within the same time unit are allowed
        t = table(lid=0)
        t.merge_snapshot(self._snap(1, 5, []), link_delay=3.0)
        assert t.merge_snapshot(self._snap(1, 5, []), link_delay=3.0)

    def test_better_route_replaces(self):
        t = table(lid=0, h=1.0)
        t.merge_snapshot(self._snap(1, 0, [(5, 5, 20.0)]), link_delay=3.0)  # 23 via 1
        t.merge_snapshot(self._snap(2, 0, [(5, 5, 1.0)]), link_delay=3.0)  # 4 via 2
        assert t.next_hop(5) == 2
        assert t.delay_to(5) == 4.0
        # old primary demoted to backup
        assert t.lookup(5).backup_next_hop == 1

    def test_worse_route_becomes_backup(self):
        t = table(lid=0, h=1.0)
        t.merge_snapshot(self._snap(1, 0, [(5, 5, 1.0)]), link_delay=3.0)
        t.merge_snapshot(self._snap(2, 0, [(5, 5, 20.0)]), link_delay=3.0)
        e = t.lookup(5)
        assert e.next_hop == 1
        assert e.backup_next_hop == 2
        assert e.backup_delay == 23.0

    def test_same_via_refresh_updates_delay_up(self):
        """Fresher info over the same next hop replaces the delay outright
        (the Fig. 7 rule), even when the delay got worse."""
        t = table(lid=0, h=1.0)
        t.merge_snapshot(self._snap(1, 0, [(5, 5, 1.0)]), link_delay=3.0)
        t.merge_snapshot(self._snap(1, 1, [(5, 5, 30.0)]), link_delay=3.0)
        assert t.delay_to(5) == 33.0

    def test_hysteresis_blocks_marginal_switch(self):
        t = table(lid=0, h=0.5)
        t.merge_snapshot(self._snap(1, 0, [(5, 5, 10.0)]), link_delay=3.0)  # 13 via 1
        t.merge_snapshot(self._snap(2, 0, [(5, 5, 7.0)]), link_delay=3.0)  # 10 via 2: only 23% better
        assert t.next_hop(5) == 1  # not switched
        assert t.lookup(5).backup_next_hop == 2  # but remembered

    def test_paper_fig7_example(self):
        """The routing-table update walkthrough of Fig. 7.

        L_self starts with entries (1,1,8), (4,7,20), (7,7,6), (9,7,34) and
        receives from L6 (link delay 7): (3,3,10), (9,3,30), (4,3,11).
        Expected result: 3 added via 6 (17); 9 unchanged (34 < 37);
        4 switched to via 6 (18); 1 and 7 untouched.
        """
        t = table(lid=0, h=1.0)
        t._offer_route(1, 1, 8.0)
        t._offer_route(4, 7, 20.0)
        t._offer_route(7, 7, 6.0)
        t._offer_route(9, 7, 34.0)
        snap = self._snap(6, 0, [(3, 3, 10.0), (9, 3, 30.0), (4, 3, 11.0)])
        t.merge_snapshot(snap, link_delay=7.0)
        assert t.lookup(3).next_hop == 6 and t.delay_to(3) == 17.0
        assert t.lookup(9).next_hop == 7 and t.delay_to(9) == 34.0
        assert t.lookup(4).next_hop == 6 and t.delay_to(4) == 18.0
        assert t.lookup(1).next_hop == 1 and t.delay_to(1) == 8.0
        assert t.lookup(7).next_hop == 7 and t.delay_to(7) == 6.0


class TestQueriesAndMetrics:
    def test_delay_to_self_zero(self):
        assert table(lid=4).delay_to(4) == 0.0

    def test_unknown_dest_infinite(self):
        assert table().delay_to(99) == math.inf

    def test_coverage(self):
        t = table(lid=0)
        t.set_direct_link(1, 1.0)
        t.set_direct_link(2, 1.0)
        assert t.coverage(n_landmarks=5) == pytest.approx(0.5)

    def test_coverage_single_landmark(self):
        assert table().coverage(1) == 1.0

    def test_stability_no_previous(self):
        assert table().stability_against({}) == 1.0

    def test_stability_counts_changes(self):
        t = table(lid=0)
        t.set_direct_link(1, 1.0)
        t._offer_route(2, 1, 5.0)
        prev = {1: 1, 2: 9}  # dest 2 used to go via 9
        assert t.stability_against(prev) == pytest.approx(0.5)

    def test_next_hop_map(self):
        t = table()
        t.set_direct_link(1, 1.0)
        assert t.next_hop_map() == {1: 1}

    def test_drop_destination(self):
        t = table()
        t.set_direct_link(1, 1.0)
        t.drop_destination(1)
        assert t.lookup(1) is None

    def test_snapshot_immutable_copy(self):
        t = table(lid=0)
        t.set_direct_link(1, 1.0)
        snap = t.snapshot(seq=3)
        t.set_direct_link(1, 99.0)
        assert snap.entries[0].delay == 1.0
        assert snap.origin == 0 and snap.seq == 3
        assert snap.n_entries == 1


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.floats(0.1, 100.0)),
        max_size=40,
    )
)
def test_offer_route_invariants(offers):
    """Delays never increase through offers; entries stay self-consistent."""
    t = RoutingTable(0, switch_hysteresis=1.0)
    for dest, via, delay in offers:
        if dest == 0:
            continue
        prev_entry = t.lookup(dest)
        prev = t.delay_to(dest)
        prev_hop = prev_entry.next_hop if prev_entry else None
        t._offer_route(dest, via, delay)
        cur = t.delay_to(dest)
        entry = t.lookup(dest)
        assert entry.dest == dest
        # same-via refreshes may raise the delay (possibly triggering a
        # backup swap); offers via other hops never worsen the table
        if via != prev_hop:
            assert cur <= prev


class _AlwaysRewriteTable(RoutingTable):
    """Reference: the write paths as they were before identical rewrites
    were skipped, rebuilding (and bumping ``version`` for) every entry
    they touch."""

    def set_direct_link(self, neighbor: int, delay: float) -> None:
        if neighbor == self.landmark_id:
            return
        cur = self._entries.get(neighbor)
        if cur is not None and cur.next_hop != neighbor and delay >= cur.delay:
            self._offer_route(neighbor, neighbor, delay)
            return
        if cur is None or delay < cur.delay or cur.next_hop == neighbor:
            backup_hop, backup_delay = (None, math.inf)
            if cur is not None and cur.next_hop != neighbor:
                backup_hop, backup_delay = cur.next_hop, cur.delay
            elif cur is not None:
                backup_hop, backup_delay = cur.backup_next_hop, cur.backup_delay
            if backup_hop is not None and backup_delay < self.switch_hysteresis * delay:
                self._entries[neighbor] = RouteEntry(
                    dest=neighbor,
                    next_hop=backup_hop,
                    delay=backup_delay,
                    backup_next_hop=neighbor,
                    backup_delay=delay,
                )
            else:
                self._entries[neighbor] = RouteEntry(
                    dest=neighbor,
                    next_hop=neighbor,
                    delay=delay,
                    backup_next_hop=backup_hop,
                    backup_delay=backup_delay,
                )
            self.version += 1

    def _offer_route(self, dest: int, via: int, delay: float) -> None:
        cur = self._entries.get(dest)
        if cur is None:
            self._entries[dest] = RouteEntry(dest=dest, next_hop=via, delay=delay)
            self.version += 1
            return
        if via == cur.next_hop:
            if delay != cur.delay:
                backup_hop, backup_delay = cur.backup_next_hop, cur.backup_delay
                if backup_hop is not None and backup_delay < self.switch_hysteresis * delay:
                    self._entries[dest] = RouteEntry(
                        dest=dest, next_hop=backup_hop, delay=backup_delay,
                        backup_next_hop=via, backup_delay=delay,
                    )
                else:
                    self._entries[dest] = RouteEntry(
                        dest=dest, next_hop=via, delay=delay,
                        backup_next_hop=backup_hop, backup_delay=backup_delay,
                    )
                self.version += 1
            return
        if delay < self.switch_hysteresis * cur.delay:
            self._entries[dest] = RouteEntry(
                dest=dest, next_hop=via, delay=delay,
                backup_next_hop=cur.next_hop, backup_delay=cur.delay,
            )
            self.version += 1
        elif via == cur.backup_next_hop or delay < cur.backup_delay:
            self._entries[dest] = RouteEntry(
                dest=dest, next_hop=cur.next_hop, delay=cur.delay,
                backup_next_hop=via, backup_delay=delay,
            )
            self.version += 1


#: few distinct delays, so refreshes often repeat the delay they replace
_delays = st.sampled_from([0.0, 1.0, 2.5, 4.0, 10.0, 11.0, 40.0]) | st.floats(0.0, 60.0)
_ids = st.integers(0, 5)  # the table under test is landmark 0


@st.composite
def _merges(draw):
    """A snapshot as a table issues one: one row per destination, none for
    its origin.  Next hop 0 rows are split horizon; a dest 0 row routes to
    the receiving table itself."""
    origin = draw(st.integers(1, 5))
    rows = draw(st.dictionaries(_ids.filter(lambda d: d != origin),
                                st.tuples(_ids, _delays), max_size=5))
    seq = draw(st.integers(0, 4))  # repeats and stale seqs included
    return "merge", origin, seq, sorted(rows.items()), draw(_delays)


_ops = st.one_of(
    st.tuples(st.just("direct"), _ids, _delays),
    _merges(),
    st.tuples(st.just("drop"), _ids),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 0.9, 1.0]), st.lists(_ops, max_size=60))
def test_skipping_identical_rewrites_changes_no_entry(hysteresis, ops):
    """The table equals the always-rewrite reference after every step, and
    its ``version`` moves exactly when ``entries()`` changes."""
    table = RoutingTable(0, switch_hysteresis=hysteresis)
    ref = _AlwaysRewriteTable(0, switch_hysteresis=hysteresis)
    for op in ops:
        before, version = table.entries(), table.version
        if op[0] == "direct":
            table.set_direct_link(op[1], op[2])
            ref.set_direct_link(op[1], op[2])
        elif op[0] == "merge":
            _, origin, seq, rows, link_delay = op
            snap = TableSnapshot(
                origin, seq, tuple(RouteEntry(d, h, dl) for d, (h, dl) in rows)
            )
            assert table.merge_snapshot(snap, link_delay) == ref.merge_snapshot(
                snap, link_delay
            )
        else:
            table.drop_destination(op[1])
            ref.drop_destination(op[1])
        assert table.entries() == ref.entries()
        assert table.next_hop_map() == ref.next_hop_map()
        assert [table.lookup(d) for d in range(6)] == [ref.lookup(d) for d in range(6)]
        assert (table.version != version) == (table.entries() != before)
