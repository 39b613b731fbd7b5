"""Literal goldens of the task-graph orders every consumer reads.

The list scheduler walks :meth:`TaskGraph.topological_order` and each task's
:meth:`TaskGraph.predecessors`; :class:`~repro.simulation.OnocSimulator`
releases tasks through :meth:`TaskGraph.successors` and starts from
:meth:`TaskGraph.entry_tasks`.  Ties between ready tasks follow these orders,
so a schedule is reproducible only while they are.  The goldens pin them for
every registered workload: the topological order is Kahn's algorithm taken
generation by generation (entry tasks in insertion order, then children in
edge-insertion order), and both neighbour lists are in edge-insertion order.
"""

from __future__ import annotations

import pytest

from repro.scenarios.backends import WORKLOADS, build_workload

#: Seed folded into the seedable ``random`` workload.
SEED = 2017

#: Workload -> (topological order, {task: (predecessors, successors)}), the
#: task dict in insertion order and every list space-separated.
GRAPH_ORDERS = {
    'paper': (
        'T0 T1 T2 T3 T4 T5',
        {
            'T0': ('', 'T1 T2'),
            'T1': ('T0', 'T3'),
            'T2': ('T0', 'T4'),
            'T3': ('T1', 'T5'),
            'T4': ('T2', 'T5'),
            'T5': ('T3 T4', ''),
        },
    ),
    'pipeline': (
        'S0 S1 S2 S3 S4 S5',
        {
            'S0': ('', 'S1'),
            'S1': ('S0', 'S2'),
            'S2': ('S1', 'S3'),
            'S3': ('S2', 'S4'),
            'S4': ('S3', 'S5'),
            'S5': ('S4', ''),
        },
    ),
    'fork_join': (
        'source worker0 worker1 worker2 worker3 sink',
        {
            'source': ('', 'worker0 worker1 worker2 worker3'),
            'sink': ('worker0 worker1 worker2 worker3', ''),
            'worker0': ('source', 'sink'),
            'worker1': ('source', 'sink'),
            'worker2': ('source', 'sink'),
            'worker3': ('source', 'sink'),
        },
    ),
    'random': (
        'R0 R1 R2 R3 R4 R5 R6 R7',
        {
            'R0': ('', 'R1'),
            'R1': ('R0', 'R2 R5'),
            'R2': ('R1', 'R3 R5 R6'),
            'R3': ('R2', 'R4'),
            'R4': ('R3', 'R5'),
            'R5': ('R4 R1 R2', 'R6'),
            'R6': ('R5 R2', 'R7'),
            'R7': ('R6', ''),
        },
    ),
    'fft': (
        'IN_0 IN_1 IN_2 IN_3 IN_4 IN_5 IN_6 IN_7 B1_0 B1_1 B1_2 B1_3 B1_4 B1_5 B1_6 B1_7 B2_0 B2_2 B2_1 B2_3 B2_4 B2_6 B2_5 B2_7 B3_0 B3_4 B3_2 B3_6 B3_1 B3_5 B3_3 B3_7',
        {
            'IN_0': ('', 'B1_0 B1_1'),
            'IN_1': ('', 'B1_0 B1_1'),
            'IN_2': ('', 'B1_2 B1_3'),
            'IN_3': ('', 'B1_2 B1_3'),
            'IN_4': ('', 'B1_4 B1_5'),
            'IN_5': ('', 'B1_4 B1_5'),
            'IN_6': ('', 'B1_6 B1_7'),
            'IN_7': ('', 'B1_6 B1_7'),
            'B1_0': ('IN_0 IN_1', 'B2_0 B2_2'),
            'B1_1': ('IN_1 IN_0', 'B2_1 B2_3'),
            'B1_2': ('IN_2 IN_3', 'B2_0 B2_2'),
            'B1_3': ('IN_3 IN_2', 'B2_1 B2_3'),
            'B1_4': ('IN_4 IN_5', 'B2_4 B2_6'),
            'B1_5': ('IN_5 IN_4', 'B2_5 B2_7'),
            'B1_6': ('IN_6 IN_7', 'B2_4 B2_6'),
            'B1_7': ('IN_7 IN_6', 'B2_5 B2_7'),
            'B2_0': ('B1_0 B1_2', 'B3_0 B3_4'),
            'B2_1': ('B1_1 B1_3', 'B3_1 B3_5'),
            'B2_2': ('B1_2 B1_0', 'B3_2 B3_6'),
            'B2_3': ('B1_3 B1_1', 'B3_3 B3_7'),
            'B2_4': ('B1_4 B1_6', 'B3_0 B3_4'),
            'B2_5': ('B1_5 B1_7', 'B3_1 B3_5'),
            'B2_6': ('B1_6 B1_4', 'B3_2 B3_6'),
            'B2_7': ('B1_7 B1_5', 'B3_3 B3_7'),
            'B3_0': ('B2_0 B2_4', ''),
            'B3_1': ('B2_1 B2_5', ''),
            'B3_2': ('B2_2 B2_6', ''),
            'B3_3': ('B2_3 B2_7', ''),
            'B3_4': ('B2_4 B2_0', ''),
            'B3_5': ('B2_5 B2_1', ''),
            'B3_6': ('B2_6 B2_2', ''),
            'B3_7': ('B2_7 B2_3', ''),
        },
    ),
    'gaussian_elimination': (
        'P0 U0_1 U0_2 U0_3 U0_4 P1 U1_2 U1_3 U1_4 P2 U2_3 U2_4 P3 U3_4',
        {
            'P0': ('', 'U0_1 U0_2 U0_3 U0_4'),
            'U0_1': ('P0', 'P1'),
            'U0_2': ('P0', 'U1_2'),
            'U0_3': ('P0', 'U1_3'),
            'U0_4': ('P0', 'U1_4'),
            'P1': ('U0_1', 'U1_2 U1_3 U1_4'),
            'U1_2': ('P1 U0_2', 'P2'),
            'U1_3': ('P1 U0_3', 'U2_3'),
            'U1_4': ('P1 U0_4', 'U2_4'),
            'P2': ('U1_2', 'U2_3 U2_4'),
            'U2_3': ('P2 U1_3', 'P3'),
            'U2_4': ('P2 U1_4', 'U3_4'),
            'P3': ('U2_3', 'U3_4'),
            'U3_4': ('P3 U2_4', ''),
        },
    ),
}


def test_every_registered_workload_is_pinned():
    assert sorted(GRAPH_ORDERS) == sorted(WORKLOADS.names())


@pytest.mark.parametrize("workload", sorted(GRAPH_ORDERS))
def test_graph_orders_match_the_goldens(workload):
    order, neighbours = GRAPH_ORDERS[workload]
    graph = build_workload(workload, {}, seed=SEED)
    assert graph.topological_order() == order.split()
    assert graph.task_names() == list(neighbours)
    for task, (predecessors, successors) in neighbours.items():
        assert graph.predecessors(task) == predecessors.split(), task
        assert graph.successors(task) == successors.split(), task
    assert graph.entry_tasks() == [task for task, (pre, _) in neighbours.items() if not pre]
    assert graph.exit_tasks() == [task for task, (_, post) in neighbours.items() if not post]
