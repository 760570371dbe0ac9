"""The route table == a cold recomputation, always.

``PhysicalTopology.shortest_path`` answers routes between nodes of
degree >= 2 from a table that survives pendant attaches, and
``nodes_of_kind`` from one dropped per kind added.  Both are pure
optimisations: after *any* sequence of mutations, for every node pair,
the answer must be exactly what a cold topology rebuilt from the same
mutation history gives — and ``nx.shortest_path`` (the bidirectional
search ``src/`` no longer calls) wherever the shortest path is unique.
Latencies here are small integers, so sums are exact and equal-cost
ties — where a stale entry, or a tie-break that looks at pendant nodes,
would show — are the common case.

The second half pins placement: ``place_chain`` scores candidates with
an incremental :class:`~repro.sdn.routing.StretchWalk`; the
per-candidate whole-path formula it replaced lives on here, as the
oracle, and the two must agree with ``==`` (no ``approx``).
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ConfigurationError, EmbeddingError, ReproError
from repro.netsim.topology import (
    NODE_KINDS,
    PhysicalTopology,
    attach_device,
)
from repro.nfv.hypervisor import HostCapacity, NfvHost
from repro.nfv.placement import (
    PlacementDecision,
    PlacementRequest,
    place_chain,
)
from repro.sdn.routing import path_stretch
from repro.units import transmission_delay

KINDS = sorted(NODE_KINDS)
MAX_NODES = 9


# -- the oracle: nothing remembered, everything from the graph ---------------


def _recorded(name):
    def mutator(self, *args, **kwargs):
        result = getattr(PhysicalTopology, name)(self, *args, **kwargs)
        self.history.append((name, args, kwargs))
        return result
    return mutator


class RecordedTopology(PhysicalTopology):
    """A topology that remembers how it was built, so a cold twin —
    same graph, same adjacency order, empty tables — can be replayed."""

    def __init__(self) -> None:
        super().__init__()
        self.history = []

    add_node = _recorded("add_node")
    add_link = _recorded("add_link")
    set_link_down = _recorded("set_link_down")
    set_link_up = _recorded("set_link_up")
    set_link_loss = _recorded("set_link_loss")

    def cold(self) -> PhysicalTopology:
        twin = PhysicalTopology()
        for name, args, kwargs in self.history:
            getattr(twin, name)(*args, **kwargs)
        return twin


def cold_twin(topo: PhysicalTopology) -> PhysicalTopology:
    if isinstance(topo, RecordedTopology):
        return topo.cold()
    # No history to replay: share the graph object itself, because a
    # ``graph.copy()`` may reorder adjacency, which breaks ties.
    twin = PhysicalTopology()
    twin.graph = topo.graph
    return twin


def usable_latency(a, b, data):
    return None if data.get("down") else data["latency"]


def fresh_path(topo: PhysicalTopology, src: str, dst: str) -> list[str]:
    return cold_twin(topo).shortest_path(src, dst)


def assert_networkx_agrees(topo: PhysicalTopology, src: str, dst: str,
                           path: list[str] | None) -> None:
    """``path`` is one of the shortest paths, and where there is only
    one it is what the bidirectional search picks too.  For integer
    latencies only: float sums that tie under one association and not
    under another make "unique" depend on which end a search starts."""
    try:
        tied = list(nx.all_shortest_paths(
            topo.graph, src, dst, weight=usable_latency))
    except nx.NetworkXNoPath:
        assert path is None
        return
    assert path in tied
    if len(tied) == 1:
        assert path == nx.shortest_path(
            topo.graph, src, dst, weight=usable_latency)


def fresh_nodes_of_kind(topo: PhysicalTopology, kind: str,
                        include_wide_area: bool) -> list[str]:
    return sorted(
        n for n, data in topo.graph.nodes(data=True)
        if data["kind"] == kind
        and (include_wide_area or not data.get("wide_area"))
    )


def all_routes(topo: PhysicalTopology) -> dict:
    routes = {}
    for src in topo.graph.nodes:
        for dst in topo.graph.nodes:
            try:
                routes[src, dst] = topo.shortest_path(src, dst)
            except ConfigurationError:
                routes[src, dst] = None
    return routes


def assert_tables_fresh(topo: PhysicalTopology) -> None:
    """Every pair and every kind, asked twice (the second answer comes
    from the table), vandalising each returned list in between."""
    cold = cold_twin(topo)
    nodes = list(topo.graph.nodes)
    for src in nodes:
        for dst in nodes:
            try:
                expected = cold.shortest_path(src, dst)
            except ConfigurationError:
                expected = None
            assert_networkx_agrees(topo, src, dst, expected)
            for _ in range(2):
                if expected is None:
                    with pytest.raises(ConfigurationError):
                        topo.shortest_path(src, dst)
                    continue
                got = topo.shortest_path(src, dst)
                assert type(got) is list
                assert got == expected
                got.reverse()
                got.append("vandal")
    for kind in KINDS:
        for wide in (True, False):
            expected = fresh_nodes_of_kind(topo, kind, wide)
            for _ in range(2):
                got = topo.nodes_of_kind(kind, include_wide_area=wide)
                assert type(got) is list
                assert got == expected
                got.append("vandal")


# -- hypothesis: arbitrary mutation sequences --------------------------------

index = st.integers(min_value=0, max_value=10_000)
tie_latency = st.integers(min_value=1, max_value=3)


class RouteTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.topo = RecordedTopology()
        self.topo.add_node("s0", kind="switch")
        self.topo.add_node("ap0", kind="ap")
        self.topo.add_link("s0", "ap0", 1, 1e9)
        self.names = 0

    def _fresh_name(self, stem: str) -> str:
        self.names += 1
        return f"{stem}{self.names}"

    def _node(self, i: int) -> str:
        nodes = list(self.topo.graph.nodes)
        return nodes[i % len(nodes)]

    def _link(self, i: int) -> tuple[str, str]:
        links = list(self.topo.graph.edges)
        return links[i % len(links)]

    def _room(self) -> bool:
        return len(self.topo.graph) < MAX_NODES

    @precondition(_room)
    @rule(kind=st.sampled_from(KINDS), wide=st.booleans())
    def add_node(self, kind, wide):
        before = self.topo.version
        attrs = {"wide_area": True} if wide else {}
        self.topo.add_node(self._fresh_name("n"), kind=kind, **attrs)
        assert self.topo.version > before

    @rule(i=index, kind=st.sampled_from(KINDS), wide=st.booleans())
    def re_add_node(self, i, kind, wide):
        # An existing name: its kind (and wide_area flag) may change.
        self.topo.add_node(self._node(i), kind=kind, wide_area=wide)

    @rule(a=index, b=index, latency=tie_latency)
    def add_link(self, a, b, latency):
        a, b = self._node(a), self._node(b)
        if a == b:
            return
        before = self.topo.version
        self.topo.add_link(a, b, latency, 1e9)
        assert self.topo.version > before

    @precondition(_room)
    @rule(i=index, latency=tie_latency)
    def attach_device(self, i, latency):
        # Anywhere, not just APs: onto a leaf, an island, a core node.
        attach_device(self.topo, self._fresh_name("dev"),
                      ap=self._node(i), latency=latency)

    @rule(i=index)
    def set_link_down(self, i):
        before = self.topo.version
        self.topo.set_link_down(*self._link(i))
        assert self.topo.version > before

    @rule(i=index)
    def set_link_up(self, i):
        before = self.topo.version
        self.topo.set_link_up(*self._link(i))
        assert self.topo.version > before

    @rule(i=index, loss=st.floats(min_value=0.0, max_value=0.9))
    def set_link_loss(self, i, loss):
        # Loss is not a routing input: no version bump, answers stand.
        before = self.topo.version
        self.topo.set_link_loss(*self._link(i), loss)
        assert self.topo.version == before

    @invariant()
    def tables_equal_a_cold_computation(self):
        assert_tables_fresh(self.topo)


RouteTableMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None,
)
TestRouteTableMachine = RouteTableMachine.TestCase


# -- units -------------------------------------------------------------------


def tie_graph() -> RecordedTopology:
    """Two equal-cost n0 -> n3 routes (via n5 and via n1, both 5)."""
    topo = RecordedTopology()
    for i in range(6):
        topo.add_node(f"n{i}", kind="ap")
    for a, b, latency in (("n0", "n2", 2), ("n3", "n5", 2), ("n2", "n5", 1),
                          ("n1", "n3", 1), ("n1", "n2", 2)):
        topo.add_link(a, b, latency, 1e9)
    return topo


def access_tree() -> RecordedTopology:
    """core -- ap, with devices d0 and d1 on the AP; core has a second
    link (to gw) so it is not pendant itself."""
    topo = RecordedTopology()
    topo.add_node("core", kind="switch")
    topo.add_node("gw", kind="gateway")
    topo.add_node("ap", kind="ap")
    topo.add_link("core", "gw", 2, 1e9)
    topo.add_link("ap", "core", 2, 1e9)
    for name in ("d0", "d1"):
        attach_device(topo, name, ap="ap", latency=1)
    return topo


@st.composite
def tie_worlds(draw):
    """A random graph with small-integer latencies, some links down."""
    topo = RecordedTopology()
    n = draw(st.integers(2, 7))
    for i in range(n):
        topo.add_node(f"n{i}", kind=draw(st.sampled_from(KINDS)))
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b:
            topo.add_link(f"n{a}", f"n{b}", draw(tie_latency), 1e9)
    links = sorted(topo.graph.edges)
    if links:
        for a, b in draw(st.lists(st.sampled_from(links), max_size=2)):
            topo.set_link_down(a, b)
    return topo


@settings(max_examples=200, deadline=None)
@given(tie_worlds(), st.lists(st.tuples(index, tie_latency),
                              min_size=1, max_size=6))
def test_leaf_attaches_move_no_existing_route(topo, leaves):
    """Attach k leaves anywhere — onto core nodes, islands, other
    leaves: every pre-existing pair keeps its route (or its partition),
    and pairs that were in the table cost no new search."""
    before = all_routes(topo)
    tabled = [pair for pair in topo._routes]
    for k, (i, latency) in enumerate(leaves):
        nodes = list(topo.graph.nodes)
        attach_device(topo, f"leaf{k}", ap=nodes[i % len(nodes)],
                      latency=latency)
    searches = topo.searches
    for src, dst in tabled:
        assert topo.shortest_path(src, dst) == before[src, dst]
    assert topo.searches == searches
    after = all_routes(topo)
    assert {pair: after[pair] for pair in before} == before
    assert_tables_fresh(topo)


class TestRouteTable:
    def test_leaf_attach_moves_no_existing_route(self):
        """PR 13's pinned graph, where a leaf on n0 flipped the
        bidirectional search's pick between the two equal-cost
        n0 -> n3 routes.  The owned search never looks past a pendant
        node, so the route stands, table entry and all."""
        topo = tie_graph()
        assert_tables_fresh(topo)       # every core pair is in the table
        before = topo.shortest_path("n0", "n3")
        assert before in (["n0", "n2", "n5", "n3"], ["n0", "n2", "n1", "n3"])
        everything = all_routes(topo)
        attach_device(topo, "leaf", ap="n0", latency=1)
        searches = topo.searches
        assert topo.shortest_path("n2", "n3") == before[1:]
        assert topo.searches == searches            # answered from the table
        # n0 was pendant itself (n2 -> n3 plus a hop); with the leaf it
        # has degree 2 and is searched from — to the same route.
        assert topo.shortest_path("n0", "n3") == before
        assert topo.searches == searches + 1
        assert topo.cold().shortest_path("n0", "n3") == before
        assert topo.shortest_path("leaf", "n3") == ["leaf"] + before
        assert topo.searches == searches + 1        # never stored per device
        after = all_routes(topo)
        assert {pair: after[pair] for pair in everything} == everything
        assert_tables_fresh(topo)

    @pytest.mark.parametrize("latency", [1, 0])
    def test_equal_cost_tie_goes_to_the_first_found_route(self, latency):
        """The tie-break is the graph's own: of two equal-cost routes
        the one through the earlier-linked neighbour stands (FIFO pops
        it first, strict ``<`` keeps it) — zero-latency links included,
        where ``<=`` would walk back into a settled node."""
        topo = RecordedTopology()
        for name in "abcd":
            topo.add_node(name, kind="switch")
        for a, b in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            topo.add_link(a, b, latency, 1e9)
        assert topo.shortest_path("a", "d") == ["a", "b", "d"]
        assert topo.shortest_path("d", "a") == ["d", "b", "a"]
        attach_device(topo, "leaf", ap="c", latency=latency)
        assert topo.shortest_path("d", "a") == ["d", "b", "a"]
        assert topo.cold().shortest_path("a", "d") == ["a", "b", "d"]

    def test_pendant_endpoints_are_stripped(self):
        topo = access_tree()
        core_route = topo.shortest_path("ap", "gw")
        assert core_route == ["ap", "core", "gw"]
        searches = topo.searches
        assert topo.shortest_path("d0", "gw") == ["d0"] + core_route
        assert topo.shortest_path("gw", "d0") == ["gw", "core", "ap", "d0"]
        assert topo.shortest_path("d0", "d1") == ["d0", "ap", "d1"]
        assert topo.shortest_path("d0", "ap") == ["d0", "ap"]
        assert topo.shortest_path("ap", "d0") == ["ap", "d0"]
        assert topo.shortest_path("d0", "d0") == ["d0"]
        # gw is pendant too: gw -> d0 is core -> ap between two strips,
        # so the only search since was that one.
        assert topo.searches == searches + 1
        assert not any("d0" in pair or "d1" in pair for pair in topo._routes)
        assert_tables_fresh(topo)

    def test_two_node_component(self):
        """Each other's only neighbour: the strip must not recurse."""
        topo = access_tree()
        topo.add_node("x", kind="switch")
        topo.add_node("y", kind="switch")
        topo.add_link("x", "y", 1, 1e9)
        assert topo.shortest_path("x", "y") == ["x", "y"]
        assert topo.shortest_path("y", "x") == ["y", "x"]
        for lost in ("gw", "d0", "ap"):
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="partitioned"):
                    topo.shortest_path("x", lost)
                with pytest.raises(ConfigurationError, match="partitioned"):
                    topo.shortest_path(lost, "y")
        topo.set_link_down("x", "y")
        with pytest.raises(ConfigurationError, match="partitioned"):
            topo.shortest_path("x", "y")
        assert_tables_fresh(topo)

    def test_down_access_link_partitions_the_device(self):
        topo = access_tree()
        assert topo.shortest_path("d0", "gw")[0:2] == ["d0", "ap"]
        topo.set_link_down("d0", "ap")
        for src, dst in (("d0", "gw"), ("gw", "d0"), ("d0", "d1"),
                         ("d0", "ap"), ("ap", "d0")):
            with pytest.raises(ConfigurationError, match="partitioned"):
                topo.shortest_path(src, dst)
        assert topo.shortest_path("d1", "gw") == ["d1", "ap", "core", "gw"]
        topo.set_link_up("d0", "ap")
        assert topo.shortest_path("d0", "d1") == ["d0", "ap", "d1"]
        assert_tables_fresh(topo)

    def test_leaf_gaining_a_second_link_flushes(self):
        topo = tie_graph()
        attach_device(topo, "leaf", ap="n0", latency=1)
        assert len(topo.shortest_path("n0", "n3")) == 4
        topo.add_link("leaf", "n3", 1, 1e9)     # no longer a leaf: a shortcut
        assert topo.shortest_path("n0", "n3") == ["n0", "leaf", "n3"]
        assert topo.shortest_path("leaf", "n5") == ["leaf", "n3", "n5"]
        assert_tables_fresh(topo)

    def test_add_node_on_an_existing_name_flushes(self):
        topo = tie_graph()
        assert_tables_fresh(topo)
        assert topo.nodes_of_kind("ap") == [f"n{i}" for i in range(6)]
        searches = topo.searches
        topo.add_node("n4", kind="switch")          # n4 changes kind
        assert topo.nodes_of_kind("ap") == ["n0", "n1", "n2", "n3", "n5"]
        assert topo.nodes_of_kind("switch") == ["n4"]
        topo.shortest_path("n0", "n3")
        assert topo.searches == searches + 1
        assert_tables_fresh(topo)

    def test_nodes_of_kind_dropped_per_kind_added(self):
        topo = tie_graph()
        assert topo.nodes_of_kind("nfv") == []
        topo.add_node("cloud", kind="nfv", wide_area=True)
        assert topo.nodes_of_kind("nfv") == ["cloud"]
        assert topo.nodes_of_kind("nfv", include_wide_area=False) == []
        topo.add_node("nfv0", kind="nfv")
        assert topo.nodes_of_kind("nfv") == ["cloud", "nfv0"]
        assert topo.nodes_of_kind("nfv", include_wide_area=False) == ["nfv0"]

    def test_failures_are_not_remembered(self):
        topo = tie_graph()
        topo.add_node("island", kind="switch")
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="partitioned"):
                topo.shortest_path("n0", "island")
            with pytest.raises(ConfigurationError, match="unknown node"):
                topo.shortest_path("n0", "ghost")
            with pytest.raises(ConfigurationError, match="unknown node"):
                topo.shortest_path("ghost", "n0")
        topo.add_link("island", "n3", 1, 1e9)
        assert topo.shortest_path("n0", "island")[-2:] == ["n3", "island"]
        topo.add_node("ghost", kind="host")
        topo.add_link("ghost", "n0", 1, 1e9)
        assert topo.shortest_path("ghost", "n2") == ["ghost", "n0", "n2"]

    def test_self_loop_is_rejected(self):
        topo = tie_graph()
        with pytest.raises(ConfigurationError, match="self-loop"):
            topo.add_link("n4", "n4", 1, 1e9)

    def test_link_flap_invalidates(self):
        topo = tie_graph()
        assert topo.shortest_path("n2", "n3") == fresh_path(topo, "n2", "n3")
        topo.set_link_down("n2", "n5")
        assert topo.shortest_path("n2", "n3") == ["n2", "n1", "n3"]
        topo.set_link_down("n1", "n2")
        with pytest.raises(ConfigurationError):
            topo.shortest_path("n2", "n3")
        topo.set_link_up("n2", "n5")
        assert topo.shortest_path("n2", "n3") == ["n2", "n5", "n3"]

    def test_path_latency_continues_a_sum(self):
        topo = PhysicalTopology()
        for name in "abcd":
            topo.add_node(name, kind="switch")
        topo.add_link("a", "b", 0.0005, 1e9)
        topo.add_link("b", "c", 0.002, 40e6)
        topo.add_link("c", "d", 0.008, 1e9)
        whole = topo.path_latency(["a", "b", "c", "d"])
        head = topo.path_latency(["a", "b", "c"])
        assert topo.path_latency(["c", "d"], start=head) == whole


# -- place_chain: incremental evaluation == per-candidate formula ------------


def oracle_waypointed_path(topo, src, dst, waypoints):
    stops = [src, *waypoints, dst]
    full = [src]
    for a, b in zip(stops, stops[1:]):
        full.extend(fresh_path(topo, a, b)[1:])
    return full


def oracle_latency(topo, path):
    total = 0.0
    for a, b in zip(path, path[1:]):
        edge = topo.graph.edges[a, b]
        total += edge["latency"] + transmission_delay(
            40, edge["bandwidth_bps"])
    return total


def oracle_path_stretch(topo, src, dst, waypoints):
    """The whole-path formula, recomputed from nothing per call."""
    direct = oracle_latency(topo, fresh_path(topo, src, dst))
    via = oracle_latency(
        topo, oracle_waypointed_path(topo, src, dst, waypoints))
    if direct <= 0:
        return 1.0
    return via / direct


def oracle_place_chain(topo, requests, src, dst, hosts, prefer_reuse):
    """``place_chain`` as it was before the shared-prefix evaluation."""
    decisions, waypoints = [], []
    for request in requests:
        if prefer_reuse and request.allow_physical_reuse:
            physical = next(
                (n for n in fresh_nodes_of_kind(topo, "middlebox", True)
                 if topo.graph.nodes[n].get("service") == request.service),
                None,
            )
            if physical is not None:
                decisions.append(PlacementDecision(
                    request.service, physical, reused_physical=True))
                waypoints.append(physical)
                continue
        candidates = [
            n for n in fresh_nodes_of_kind(topo, "nfv", True)
            if n in hosts and hosts[n].alive
            and hosts[n].memory_in_use + request.memory_bytes
            <= hosts[n].capacity.memory_bytes
            and hosts[n].cpu_in_use + request.cpu_share
            <= hosts[n].capacity.cpu_cores
        ]
        if not candidates:
            raise EmbeddingError(request.service)
        best = min(candidates, key=lambda n: oracle_path_stretch(
            topo, src, dst, waypoints + [n]))
        decisions.append(PlacementDecision(
            request.service, best, reused_physical=False))
        waypoints.append(best)
    path = oracle_waypointed_path(topo, src, dst, waypoints)
    stretch = (oracle_path_stretch(topo, src, dst, waypoints)
               if waypoints else 1.0)
    return tuple(decisions), tuple(path), stretch


#: Latencies and bandwidths whose sums round differently depending on
#: association, so a re-associated accumulation would not be ``==``.
LATENCIES = (0.0005, 0.002, 0.008, 0.0003, 0.0011, 0.015)
BANDWIDTHS = (1e9, 40e6, 100e6, 3e6)
SERVICES = ("tcp_proxy", "cache", "pii_filter", "tls_validator")


@st.composite
def placement_worlds(draw):
    n_switches = draw(st.integers(2, 4))
    n_nfv = draw(st.integers(1, 3))
    n_boxes = draw(st.integers(0, 2))
    topo = PhysicalTopology()
    switches = [f"s{i}" for i in range(n_switches)]
    for name in switches:
        topo.add_node(name, kind="switch")
    nfvs = [f"nfv{i}" for i in range(n_nfv)]
    for name in nfvs:
        topo.add_node(name, kind="nfv")
    boxes = []
    for service in SERVICES[:n_boxes]:
        box = f"pmb_{service}"
        topo.add_node(box, kind="middlebox", service=service)
        boxes.append(box)
    topo.add_node("dev", kind="host")
    topo.add_node("gw", kind="gateway")

    def link(a, b):
        topo.add_link(a, b, draw(st.sampled_from(LATENCIES)),
                      draw(st.sampled_from(BANDWIDTHS)))

    for a, b in zip(switches, switches[1:]):      # a connected spine
        link(a, b)
    link("dev", switches[0])
    link("gw", switches[-1])
    for name in nfvs + boxes:
        link(name, draw(st.sampled_from(switches)))
    everything = switches + nfvs + boxes
    for _ in range(draw(st.integers(0, 5))):      # shortcuts and ties
        a, b = draw(st.sampled_from(everything)), draw(
            st.sampled_from(everything))
        if a != b:
            link(a, b)
    links = sorted(topo.graph.edges)
    for a, b in draw(st.lists(st.sampled_from(links), max_size=2)):
        topo.set_link_down(a, b)

    hosts = {}
    for name in nfvs:
        if draw(st.integers(0, 5)) == 0:
            continue                              # not ours to place on
        hosts[name] = NfvHost(name, HostCapacity(
            memory_bytes=draw(st.sampled_from((1, 12_000_000, 10**9))),
            cpu_cores=4,
        ))
    requests = [
        PlacementRequest(service=service,
                         allow_physical_reuse=draw(st.booleans()))
        for service in draw(st.lists(st.sampled_from(SERVICES),
                                     max_size=4, unique=True))
    ]
    return topo, requests, hosts, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(placement_worlds())
def test_place_chain_equals_per_candidate_formula(world):
    topo, requests, hosts, prefer_reuse = world
    try:
        expected = oracle_place_chain(topo, requests, "dev", "gw", hosts,
                                      prefer_reuse)
    except ReproError as exc:
        with pytest.raises(type(exc)):
            place_chain(topo, requests, "dev", "gw", hosts,
                        prefer_reuse=prefer_reuse)
        return
    plan = place_chain(topo, requests, "dev", "gw", hosts,
                       prefer_reuse=prefer_reuse)
    assert plan.decisions == expected[0]
    assert plan.path == expected[1]
    assert plan.stretch == expected[2]
    waypoints = [d.node for d in plan.decisions]
    assert path_stretch(topo, "dev", "gw", waypoints) == (
        oracle_path_stretch(topo, "dev", "gw", waypoints))
