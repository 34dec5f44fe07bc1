"""The value types keep the repr, ==, hash, immutability and pickling they
had as dataclasses; the records keep their repr.

Each literal below is what the dataclass version of the type printed.
"""

import copy
import pickle

import numpy as np
import pytest

from hamca.conservation import ConservationReport, PairStats, link_counts
from hamca.continuum import BandlimitedSignal, BornEntry, BornReport, Q1Result, SpectralForm
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, make_cyclic_model
from hamca.ontology import CycleReport, Visit

H2 = make_cyclic_model(2)
H2_REPR = "HamiltonianSpec(dim=2, S=((0, 1), (1, 0)), A=((0, 0), (0, 0)), label='H2')"
VALUES = [
    (GaussInt(3, -4), "GaussInt(3, -4)", (3, -4)),
    (GaussVector((1, 2), (0, -1)), "GaussVector(re=(1, 2), im=(0, -1))", ((1, 2), (0, -1))),
    (GaussMatrix(((1, 2), (2, 1)), ((0, -1), (1, 0))), "GaussMatrix(re=((1, 2), (2, 1)), im=((0, -1), (1, 0)))",
     (((1, 2), (2, 1)), ((0, -1), (1, 0)))),
    (H2, H2_REPR, (2, ((0, 1), (1, 0)), ((0, 0), (0, 0)), "H2")),
]


@pytest.mark.parametrize("value, text, fields", VALUES, ids=lambda v: type(v).__name__)
def test_value_type_matches_its_dataclass_form(value, text, fields):
    twin = type(value)(*fields)
    assert repr(value) == repr(twin) == text
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert value != fields and value != object()  # equal only to its own type
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1  # slotted: no instance dict
    assert repr(value) == text


def test_gauss_int_keeps_its_own_equality_and_hash():
    assert GaussInt(5) == 5 and hash(GaussInt(5)) == hash(5)
    assert GaussInt(0, 1) != (0, 1)


def test_bandlimited_signal_is_frozen_and_pickles():
    signal = BandlimitedSignal([[1], [2j]], 0.5, 8)
    assert repr(signal) == "BandlimitedSignal(samples=array([[1.+0.j],\n       [0.+2.j]]), l=0.5, window=8)"
    assert signal.samples.dtype == np.complex128
    with pytest.raises(AttributeError):
        signal.window = 16
    for clone in (pickle.loads(pickle.dumps(signal)), copy.deepcopy(signal)):
        assert np.array_equal(clone.samples, signal.samples) and (clone.l, clone.window) == (0.5, 8)
        # it holds a mutable array, so == and hash are by identity: a clone is another object
        assert clone != signal and clone not in {signal}


def test_spec_validates_on_unpickling():
    """Pickling goes through the constructor, so a clone passes the same checks."""
    spec = HamiltonianSpec(2, [[0, 7], [7, 0]], [[0, 0], [0, 0]])
    assert spec.S == ((0, 7), (7, 0))  # rows frozen to tuples
    data = pickle.dumps(spec)
    assert pickle.loads(data) == spec
    with pytest.raises(ValueError, match="S is not symmetric"):
        pickle.loads(data.replace(b"K\x07", b"K\x08", 1))  # the pickled int 7 at S[1][2] made 8


RECORDS = [
    (link_counts(GaussVector.of(1, 2), GaussVector.of(3, -1)), "LinkReport(per_alpha=(3, -2), total=1)"),
    (PairStats(0, GaussInt(2), link_counts(GaussVector.of(1, 2), GaussVector.of(3, -1))),
     "PairStats(n=0, q=GaussInt(2, 0), links=LinkReport(per_alpha=(3, -2), total=1))"),
    (ConservationReport(False, GaussInt(4), 7, 3, "q_G changed"),
     "ConservationReport(ok=False, q_value=GaussInt(4, 0), pairs_checked=7, first_violation=3, message='q_G changed')"),
    (CycleReport(None, (Visit(0, None, None),), False, 1, 5, 2, 20),
     "CycleReport(period=None, visits=(Visit(n=0, k=None, phase=None),), ontological=False, link_number=1, "
     "max_steps=5, pair_index=2, expected_period=20)"),
    (BornReport([BornEntry(0.1, 3, 1.0, 0.5)]),
     "BornReport(entries=[BornEntry(l=0.1, steps=3, link_total=1.0, max_error=0.5)])"),
    (Q1Result(4.0, "pairwise", 2.0, 2.0, 0.0),
     "Q1Result(value=4.0, convention='pairwise', norm_term=2.0, expansion=2.0, remainder=0.0)"),
    (SpectralForm(np.array([1.0]), np.eye(1), 0.0),
     "SpectralForm(eigenvalues=array([1.]), eigenvectors=array([[1.]]), residual=0.0)"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda r: type(r).__name__)
def test_record_repr_matches_its_dataclass_form(record, text):
    assert repr(record) == text
    assert repr(pickle.loads(pickle.dumps(record))) == text
