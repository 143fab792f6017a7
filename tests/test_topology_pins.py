"""Pinned edge lists and exact diameters of the generated topologies.

Each pin is the sha256 of a network's node count, ``edge_list()`` and
``diameter``.  The unit-disk kernel, the generators' RNG draws and the
diameter sweep must leave every one of them unchanged: round budgets
derive from D, and every downstream digest from the edge list.
"""

import hashlib
import json

import pytest

from repro.radio import RadioNetwork
from repro.topology import (
    balanced_tree,
    barbell,
    caterpillar,
    grid,
    mobile_rgg,
    random_connected_gnp,
    random_geometric,
)


def network_digest(net):
    payload = json.dumps([net.n, net.edge_list(), net.diameter])
    return hashlib.sha256(payload.encode()).hexdigest()


#: ``random_geometric(n, seed=s)`` (default radius) and one explicit
#: ``radius=2.0`` clique.
RGG_PINS = {
    (1, None, 0):
        "d4bc7ddbcc5c1471285ba02b66de0f8e54d78693a8062978f61b968983696866",
    (2, None, 0):
        "f2c0181a0b73f7469f2f53f9d139b814a73204ff9950792265f57e99fef023b3",
    (2, None, 3):
        "f2c0181a0b73f7469f2f53f9d139b814a73204ff9950792265f57e99fef023b3",
    (50, None, 0):
        "3e80c78f53ce02e002a7f32a8f324bdefb0c15dd22971d65d36cef1343ee5580",
    (50, None, 3):
        "0da78c3fe6ee015aa734f3ba59add5d9b10e3881197e173cf26cab665d36a3c1",
    (50, None, 42):
        "530746f7363f99bd2c195087f9601a5274142ac0b3fba7532e7be4b7e9a9ab91",
    (300, None, 0):
        "af3db6f4aa0e5380ed11b291468038b132c29086994316afeebc84b8a537e6ac",
    (300, None, 3):
        "1a76ee5c87178db2ba5e2ecd140c19f6c404bce71e4d02a59d5d5376f979e4a1",
    (300, None, 42):
        "5555da277c11359b54db742039c7fe7cb70177013512654b1b6900f02de39ac1",
    (1000, None, 0):
        "ab4ce665fc0cadee5f080e6427696769506308a462c8f2a9c2d7668d4e306a35",
    (1000, None, 3):
        "f038ba83d6b5f91a63b0b1552328b5dc09be3686fcb393f07d4b87a0a2348a96",
    (10, 2.0, 0):
        "812f215c231cba3cbac32ac75cba0f0fe228c8f4b03cd67fd82661c15336d4d8",
}

#: The perfbench ``rgg-k8`` topology.
RGG_4000_PIN = (
    "c5424964c708f7ba3910a01b3a9f71d0615eacae65eb9633211bcabdf0dcb455"
)

#: Generators with no closed-form diameter, so ``diameter`` runs the
#: sweep.  ``grid-rebuilt`` drops the grid's hint by rebuilding it from
#: its edge list.
UNHINTED_PINS = {
    "balanced_tree(3,4)":
        "6d3a6b978dd674fe2ddff493873013e474bc9db9eac631a1a4f23f212c84ca4a",
    "caterpillar(40,3)":
        "2ff0ff0899f326cd43022f34ddabc7206e9fb46478364e844a5b21af72abb57c",
    "barbell(6,12)":
        "acfcdf7d6ae591806b8137c74b71e0a0602155a9e53667f582a175b40643794c",
    "gnp(200,seed=5)":
        "e8696b050e02c1443e7e061e8dca65324a8c0d88362583a3fc4ebdb446b1ec63",
    "grid-rebuilt(9,11)":
        "9843b7f4fda54903fa04df576fb42afb39f2edfefd3cd54f4053850dd4e08557",
}

#: ``mobile_rgg(200, 20, seed=3)``: every epoch's edge set, then the
#: footprint network.
MOBILE_RGG_PIN = (
    "1fd070083b21359fbba2517cc100d1e0cf855920a77818f73dbb4881fb10df07"
)


def _unhinted(name):
    return {
        "balanced_tree(3,4)": lambda: balanced_tree(3, 4),
        "caterpillar(40,3)": lambda: caterpillar(40, 3),
        "barbell(6,12)": lambda: barbell(6, 12),
        "gnp(200,seed=5)": lambda: random_connected_gnp(200, seed=5),
        "grid-rebuilt(9,11)":
            lambda: RadioNetwork(grid(9, 11).edge_list()),
    }[name]()


@pytest.mark.parametrize(
    "key", sorted(RGG_PINS, key=repr),
    ids=lambda k: f"n{k[0]}-r{k[1]}-s{k[2]}",
)
def test_random_geometric_pinned(key):
    n, radius, seed = key
    net = random_geometric(n, radius=radius, seed=seed)
    assert network_digest(net) == RGG_PINS[key]


def test_perfbench_rgg_pinned():
    assert network_digest(random_geometric(4000, seed=21)) == RGG_4000_PIN


@pytest.mark.parametrize("name", sorted(UNHINTED_PINS))
def test_unhinted_generator_pinned(name):
    assert network_digest(_unhinted(name)) == UNHINTED_PINS[name]


def test_mobile_rgg_pinned():
    net, edge_sets = mobile_rgg(200, 20, seed=3)
    h = hashlib.sha256(json.dumps(edge_sets).encode())
    h.update(network_digest(net).encode())
    assert h.hexdigest() == MOBILE_RGG_PIN
