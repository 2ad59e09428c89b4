"""Seeded runs pinned to their exact output.

Each case fixes the result text (or failure) and the step count of one
`run_one` call.  A matcher that yields the same matches in a different
order would pick other matches under the same seed, so these catch any
change in match order as well as in results.
"""

import pytest

from gp2 import corpus
from gp2.executor import Budget, run_one
from gp2.parsing import parse_host_graph

# a 12-cycle plus the cycles n1 n5 n9, n2 n8 and a loop at n6
EULER_HOST = (
    '[ (n1, 0) (n2, "a") (n3, 1) (n4, "b") (n5, 2) (n6, "c") (n7, 3) '
    '(n8, "d") (n9, 4) (n10, "e") (n11, 5) (n12, "f") | (e1, n1, n2, 0)'
    ' (e2, n2, n3, 1) (e3, n3, n4, 2) (e4, n4, n5, 3) (e5, n5, n6, 0) '
    '(e6, n6, n7, 1) (e7, n7, n8, 2) (e8, n8, n9, 3) (e9, n9, n10, 0) '
    '(e10, n10, n11, 1) (e11, n11, n12, 2) (e12, n12, n1, 3) (e13, n1, '
    'n5, 0) (e14, n5, n9, 1) (e15, n9, n1, 2) (e16, n2, n8, 3) (e17, '
    'n8, n2, 0) (e18, n6, n6, 1) ]'
)
GRID_HOST = (
    '[ (n00, 0) (n01, 0) (n02, 0) (n10, 0) (n11, 0) (n12, 0) (n20, 0) '
    '(n21, 0) (n22, 0) | (e1, n00, n01, empty) (e2, n00, n10, empty) '
    '(e3, n01, n02, empty) (e4, n01, n11, empty) (e5, n02, n12, empty) '
    '(e6, n10, n11, empty) (e7, n10, n20, empty) (e8, n11, n12, empty) '
    '(e9, n11, n21, empty) (e10, n12, n22, empty) (e11, n20, n21, '
    'empty) (e12, n21, n22, empty) ]'
)
PINNED_RUNS = [
    (
        'euler_cycle',
        EULER_HOST,
        0,
        'graph',
        72,
        (
            '[ (n1, 0) (n2, "a") (n3, 1) (n4, "b") (n5, 2) (n6, "c") (n7, 3) '
            '(n8, "d") (n9, 4) (n10, "e") (n11, 5) (n12, "f") | (e5, n4, n5, '
            '3:1) (e20, n5, n6, 0:2) (e22, n6, n6, 1:3) (e24, n6, n7, 1:4) '
            '(e26, n7, n8, 2:5) (e28, n8, n9, 3:6) (e30, n9, n10, 0:7) (e32, '
            'n10, n11, 1:8) (e34, n11, n12, 2:9) (e36, n12, n1, 3:10) (e38, n1,'
            ' n5, 0:11) (e40, n5, n9, 1:12) (e42, n9, n1, 2:13) (e44, n1, n2, '
            '0:14) (e46, n2, n3, 1:15) (e48, n3, n4, 2:16) (e50, n2, n8, '
            '3:14:1) (e52, n8, n2, 0:14:2) ]'
        ),
    ),
    (
        'euler_cycle',
        EULER_HOST,
        1,
        'graph',
        72,
        (
            '[ (n1, 0) (n2, "a") (n3, 1) (n4, "b") (n5, 2) (n6, "c") (n7, 3) '
            '(n8, "d") (n9, 4) (n10, "e") (n11, 5) (n12, "f") | (e12, n11, n12,'
            ' 2:1) (e20, n12, n1, 3:2) (e22, n1, n2, 0:3) (e24, n2, n8, 3:4) '
            '(e26, n8, n2, 0:5) (e28, n2, n3, 1:6) (e30, n3, n4, 2:7) (e32, n4,'
            ' n5, 3:8) (e34, n5, n6, 0:9) (e36, n6, n6, 1:10) (e38, n6, n7, '
            '1:11) (e40, n7, n8, 2:12) (e42, n8, n9, 3:13) (e44, n9, n10, 0:14)'
            ' (e46, n10, n11, 1:15) (e48, n9, n1, 2:13:1) (e50, n1, n5, 0:13:2)'
            ' (e52, n5, n9, 1:13:3) ]'
        ),
    ),
    (
        'euler_cycle',
        EULER_HOST,
        2,
        'graph',
        75,
        (
            '[ (n1, 0) (n2, "a") (n3, 1) (n4, "b") (n5, 2) (n6, "c") (n7, 3) '
            '(n8, "d") (n9, 4) (n10, "e") (n11, 5) (n12, "f") | (e2, n1, n2, '
            '0:1) (e20, n2, n3, 1:2) (e22, n3, n4, 2:3) (e24, n4, n5, 3:4) '
            '(e26, n5, n9, 1:5) (e28, n9, n1, 2:6) (e30, n1, n5, 0:7) (e32, n5,'
            ' n6, 0:8) (e34, n6, n7, 1:9) (e36, n7, n8, 2:10) (e38, n8, n9, '
            '3:11) (e40, n9, n10, 0:12) (e42, n10, n11, 1:13) (e44, n11, n12, '
            '2:14) (e46, n12, n1, 3:15) (e48, n8, n2, 0:10:1) (e50, n2, n8, '
            '3:10:2) (e52, n6, n6, 1:8:1) ]'
        ),
    ),
    (
        'euler_cycle',
        EULER_HOST,
        3,
        'graph',
        75,
        (
            '[ (n1, 0) (n2, "a") (n3, 1) (n4, "b") (n5, 2) (n6, "c") (n7, 3) '
            '(n8, "d") (n9, 4) (n10, "e") (n11, 5) (n12, "f") | (e13, n12, n1, '
            '3:1) (e20, n1, n5, 0:2) (e22, n5, n9, 1:3) (e24, n9, n10, 0:4) '
            '(e26, n10, n11, 1:5) (e28, n11, n12, 2:6) (e30, n9, n1, 2:3:1) '
            '(e32, n1, n2, 0:3:2) (e34, n2, n3, 1:3:3) (e36, n3, n4, 2:3:4) '
            '(e38, n4, n5, 3:3:5) (e40, n5, n6, 0:3:6) (e42, n6, n7, 1:3:7) '
            '(e44, n7, n8, 2:3:8) (e46, n8, n2, 0:3:9) (e48, n2, n8, 3:3:10) '
            '(e50, n8, n9, 3:3:11) (e52, n6, n6, 1:3:6:1) ]'
        ),
    ),
    (
        'euler_cycle',
        EULER_HOST,
        4,
        'graph',
        69,
        (
            '[ (n1, 0) (n2, "a") (n3, 1) (n4, "b") (n5, 2) (n6, "c") (n7, 3) '
            '(n8, "d") (n9, 4) (n10, "e") (n11, 5) (n12, "f") | (e19, n12, n1, '
            '3:1) (e21, n1, n2, 0:2) (e23, n2, n8, 3:3) (e25, n8, n2, 0:4) '
            '(e27, n2, n3, 1:5) (e29, n3, n4, 2:6) (e31, n4, n5, 3:7) (e33, n5,'
            ' n6, 0:8) (e35, n6, n6, 1:9) (e37, n6, n7, 1:10) (e39, n7, n8, '
            '2:11) (e41, n8, n9, 3:12) (e43, n9, n1, 2:13) (e45, n1, n5, 0:14) '
            '(e47, n5, n9, 1:15) (e49, n9, n10, 0:16) (e51, n10, n11, 1:17) '
            '(e53, n11, n12, 2:18) ]'
        ),
    ),
    (
        'connected',
        GRID_HOST,
        0,
        'graph',
        22,
        GRID_HOST,
    ),
    (
        'connected',
        GRID_HOST,
        1,
        'graph',
        22,
        GRID_HOST,
    ),
    (
        'connected',
        GRID_HOST,
        2,
        'graph',
        22,
        GRID_HOST,
    ),
    (
        'connected',
        GRID_HOST,
        3,
        'graph',
        22,
        GRID_HOST,
    ),
    (
        'connected',
        GRID_HOST,
        4,
        'graph',
        22,
        GRID_HOST,
    ),
    (
        'series_parallel',
        GRID_HOST,
        0,
        'fail',
        7,
        None,
    ),
    (
        'series_parallel',
        GRID_HOST,
        1,
        'fail',
        7,
        None,
    ),
    (
        'series_parallel',
        GRID_HOST,
        2,
        'fail',
        7,
        None,
    ),
    (
        'series_parallel',
        GRID_HOST,
        3,
        'fail',
        7,
        None,
    ),
    (
        'series_parallel',
        GRID_HOST,
        4,
        'fail',
        7,
        None,
    ),
]


@pytest.mark.parametrize(
    "name,host,seed,kind,steps,text",
    PINNED_RUNS,
    ids=[f"{case[0]}-{case[2]}" for case in PINNED_RUNS],
)
def test_seeded_run_is_pinned(name, host, seed, kind, steps, text):
    out = run_one(corpus.load(name), parse_host_graph(host), budget=Budget(seed=seed))
    assert (out.kind, out.steps) == (kind, steps)
    assert (out.graph.to_text() if out.graph else None) == text
