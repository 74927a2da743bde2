"""d-tensors: signatures, transformation law, canonical fields, verdicts."""

import numpy as np
import pytest

from jetflow import dtensor
from jetflow import numdiff as nd
from jetflow.dtensor import (
    DTensorField,
    IndexSignature,
    SignatureError,
    S_LO,
    S_UP,
    T_LO,
    T_UP,
    V_LO,
    V_UP,
    is_dtensor,
    lagrangian_metric_field,
    law_check,
    liouville_c_field,
    liouville_l_field,
    normalization_j_field,
    transform_components,
)
from jetflow.exprlang import mul, num, var
from jetflow.geometry import energy_density, metric_from_name
from jetflow.jetspace import JetPoint, JetTable, random_jet

from helpers import catalog, jets_in, standard_metrics


def _constant(name, text, p, n, arr):
    """A field of signature `text` whose table holds the entries of `arr`
    as literals, the same at every jet."""
    entries = [num(float(c)) for c in np.ravel(arr)]
    return DTensorField(name, IndexSignature.parse(text),
                        JetTable(p, n, np.shape(arr), [], lambda: entries))


# --- signatures -----------------------------------------------------------------


def test_signature_parsing_slots_and_shape():
    sig = IndexSignature.parse("U(i,a);L(b);L(j)")
    assert sig.slots == (V_UP, T_LO, S_LO)
    assert sig.shape(2, 3) == (6, 2, 3)


def test_signature_single_letters_classify_by_alphabet():
    sig = IndexSignature.parse("U(a);L(i);U(j);L(c)")
    assert sig.slots == (T_UP, S_LO, S_UP, T_LO)


def test_signature_pairs_are_vertical_regardless_of_letters():
    for text in ("U(i,a)", "U(a,i)", "U(i,j)", "L(b,c)"):
        sig = IndexSignature.parse(text)
        assert sig.slots[0] in (V_UP, V_LO)


def test_signature_round_trips_through_str():
    for text in ("U(i,a);L(b);L(j)", "L(i,a);L(j,b)", "U(a);L(i)"):
        sig = IndexSignature.parse(text)
        assert IndexSignature.parse(str(sig)) == sig


@pytest.mark.parametrize("bad", ["", "X(b)", "U(b", "U()", "U(i,a,b)", "U(1)"])
def test_malformed_signatures_raise(bad):
    with pytest.raises(SignatureError):
        IndexSignature.parse(bad)


# --- transformation law against per-slot matrix oracle -----------------------------


def test_transform_components_matches_manual_contraction():
    rng = np.random.default_rng(31)
    c = nd.random_change(rng, 2, 2, "affine")
    u = random_jet(rng, 2, 2)
    blocks = nd.jacobian_blocks(c, u.t, u.x)
    arr = rng.normal(size=(4, 2, 2))  # signature U(i,a);L(b);L(c)
    f = _constant("probe", "U(i,a);L(b);L(c)", 2, 2, arr)
    got = transform_components(f, c, u)
    V = np.kron(blocks.B, blocks.A_inv.T)
    want = np.einsum("IJ,bB,cC,JBC->Ibc", V, blocks.A_inv.T, blocks.A_inv.T, arr)
    assert np.max(np.abs(got - want)) < 1e-12


def test_transform_components_spatial_slots():
    rng = np.random.default_rng(32)
    c = nd.random_change(rng, 1, 3, "affine")
    u = random_jet(rng, 1, 3)
    blocks = nd.jacobian_blocks(c, u.t, u.x)
    arr = rng.normal(size=(3, 3))  # U(i);L(j)
    f = _constant("probe", "U(i);L(j)", 1, 3, arr)
    got = transform_components(f, c, u)
    want = blocks.B @ arr @ blocks.B_inv
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("text,krons", [("U(i,a);L(b);L(c)", 1), ("L(i,a);L(j,b)", 1),
                                        ("U(i,a);L(j,b)", 2), ("U(i);L(j)", 0)])
def test_each_used_slot_kind_is_built_once_per_call(monkeypatch, text, krons):
    """A vertical slot's Kronecker factor is built once per call, and only
    for the vertical kinds the signature uses."""
    kron, calls = dtensor.kron, []

    def counted(a, b):
        calls.append(1)
        return kron(a, b)

    rng = np.random.default_rng(34)
    c = nd.random_change(rng, 2, 2, "affine")
    u = random_jet(rng, 2, 2)
    sig = IndexSignature.parse(text)
    arr = rng.normal(size=sig.shape(2, 2))
    f = _constant("probe", text, 2, 2, arr)
    want = transform_components(f, c, u)
    monkeypatch.setattr(dtensor, "kron", counted)
    assert np.array_equal(transform_components(f, c, u), want)
    assert len(calls) == krons


# --- canonical fields pass the law --------------------------------------------------


@pytest.mark.parametrize("p,n", [(1, 2), (2, 2)])
def test_canonical_fields_are_dtensors(p, n):
    rng = np.random.default_rng(33)
    h, phi = standard_metrics(p, n)
    changes = catalog(rng, p, n, count=2)
    jets = jets_in(rng, p, n, h=h, phi=phi, count=6)
    fields = [
        liouville_c_field(p, n),
        liouville_l_field(h, n),
        normalization_j_field(h, n),
        lagrangian_metric_field(energy_density(h, phi), p, n),
    ]
    for f in fields:
        v = is_dtensor(f, changes, jets)
        assert v.passed, (f.name, v.max_rel_err)
        assert v.pairs == len(changes) * len(jets)
        assert v.max_rel_err < 1e-8


def test_raw_jet_matrix_is_a_dtensor_under_product_changes():
    """Under product changes v transforms as B v A^-1 — exactly the (S+, T-)
    law — so the unfused jet matrix itself passes."""
    rng = np.random.default_rng(40)
    f = DTensorField("jet-matrix", IndexSignature.parse("U(i);L(a)"),
                     JetTable(2, 2, (2, 2), [], lambda: [var(v) for v in nd.jet_names(2, 2)]))
    v = is_dtensor(f, catalog(rng, 2, 2, count=2), jets_in(rng, 2, 2, count=5))
    assert v.passed


def test_failing_field_yields_witness():
    """A constant-ones spatial vector has no compensating factor: B @ 1 != 1."""
    rng = np.random.default_rng(34)
    f = _constant("broken", "U(i)", 2, 2, np.ones(2))
    changes = catalog(rng, 2, 2, kinds=("mixed",), count=2)
    jets = jets_in(rng, 2, 2, count=5)
    v = is_dtensor(f, changes, jets)
    assert not v.passed
    assert v.max_rel_err > 1e-3
    assert v.witness is not None
    name, k = v.witness
    assert name.startswith("mixed") and 0 <= k < 5


def test_predictions_read_only_the_forward_map():
    """Negative control: a change whose inverse components are 1% off is no
    chart change, and the target chart's own fields (pulled back through
    those components) disagree with the prediction, which reads only the
    forward map and numpy's inverse of its blocks."""
    rng = np.random.default_rng(36)
    good = nd.random_affine_change(rng, 2, 2)
    bad = nd.ChangeMap("wrong-inverse", good.forward_t, good.forward_x,
                       [mul(num(1.01), e) for e in good.inverse_t],
                       [mul(num(1.01), e) for e in good.inverse_x])
    h, phi = metric_from_name("euclidean:2", "temporal"), metric_from_name("euclidean:2", "spatial")
    jets = jets_in(rng, 2, 2, count=4)
    for f in (liouville_l_field(h, 2), lagrangian_metric_field(energy_density(h, phi), 2, 2)):
        assert is_dtensor(f, [good], jets).passed, f.name
        v = is_dtensor(f, [bad], jets)
        assert not v.passed and v.max_rel_err > 1e-3, (f.name, v.max_rel_err)


def test_law_check_witness_names_the_first_worst_pair():
    rng = np.random.default_rng(35)
    changes = catalog(rng, 2, 2, kinds=("affine", "shear"), count=1)
    jets = jets_in(rng, 2, 2, count=3)
    zero = lambda change, u: np.zeros(2)
    # every error 0: the first pair is the witness
    v = law_check(zero, lambda change: lambda u: np.zeros(2), changes, jets)
    assert v.passed and v.max_rel_err == 0.0 and v.pairs == 6
    assert v.witness == (changes[0].name, 0)
    # the largest error, 1, occurs at two pairs: the first of them is named
    index = {id(u): k for k, u in enumerate(jets)}
    errors = {(changes[1].name, 1): 1.0, (changes[1].name, 2): 1.0}
    v = law_check(lambda change, u: np.full(2, errors.get((change.name, index[id(u)]), 0.0)),
                  lambda change: lambda u: np.zeros(2), changes, jets)
    assert not v.passed and v.max_rel_err == 1.0 and v.witness == (changes[1].name, 1)
    # no pairs, no witness
    v = law_check(zero, lambda change: lambda u: np.zeros(2), [], jets)
    assert v.passed and v.pairs == 0 and v.witness is None


@pytest.mark.parametrize("nan_at", [0, 1, 4])
def test_law_check_fails_on_a_nan_error_at_any_pair(nan_at):
    """NaN is the largest error: a NaN after finite errors, even larger
    ones, fails the check, and the first NaN pair is the witness."""
    rng = np.random.default_rng(36)
    changes = catalog(rng, 2, 2, kinds=("affine",), count=1)
    jets = jets_in(rng, 2, 2, count=6)
    errors = [0.0, 0.5, 0.0, 2.0, 0.0, 0.0]
    errors[nan_at:] = [np.nan] * (len(errors) - nan_at)
    index = {id(u): k for k, u in enumerate(jets)}
    v = law_check(lambda change, u: np.array([errors[index[id(u)]], 0.0]),
                  lambda change: lambda u: np.zeros(2), changes, jets)
    assert not v.passed and np.isnan(v.max_rel_err) and v.pairs == 6
    assert v.witness == (changes[0].name, nan_at)


def test_shape_mismatch_raises():
    """A table whose shape is not the signature's is refused when the field
    is built, before any jet is evaluated."""
    with pytest.raises(SignatureError, match=r"'bad-shape' has a table of shape \(3,\), "
                                             r"signature wants \(4,\)"):
        _constant("bad-shape", "U(i,a)", 2, 2, np.zeros(3))


# --- component identities -------------------------------------------------------------


def test_liouville_c_components():
    u = JetPoint(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                 np.array([[1.0, 2.0], [3.0, 4.0]]))
    f = liouville_c_field(2, 2)
    assert np.array_equal(f(u), np.array([1.0, 2.0, 3.0, 4.0]))


def test_liouville_l_components_product_structure():
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    u = random_jet(np.random.default_rng(35), 2, 2)
    f = liouville_l_field(h, 2)
    arr = f(u)
    hm = h.components_batch(u.t)[0]
    for i in range(2):
        for a in range(2):
            assert np.max(np.abs(arr[i * 2 + a] - u.v[i, a] * hm)) < 1e-14


def test_normalization_j_components():
    h = metric_from_name("euclidean:2", "temporal")
    u = random_jet(np.random.default_rng(36), 2, 3)
    f = normalization_j_field(h, 3)
    arr = f(u)   # shape (6, 2, 3), entries h_ab delta^i_j
    for i in range(3):
        for a in range(2):
            for b in range(2):
                for j in range(3):
                    want = (1.0 if (a == b and i == j) else 0.0)
                    assert arr[i * 2 + a, b, j] == want


def test_lagrangian_metric_of_energy_density():
    """Half the velocity Hessian of the energy density is h^{ab} phi_ij."""
    h, phi = standard_metrics(2, 2)
    L = energy_density(h, phi)
    f = lagrangian_metric_field(L, 2, 2)
    u = random_jet(np.random.default_rng(37), 2, 2,
                   box_t=h.box, box_x=phi.box)
    arr = f(u)
    want = np.kron(phi.components_batch(u.x)[0], h.inverse_batch(u.t)[0])
    assert np.max(np.abs(arr - want)) < 1e-9


def test_field_without_rebuild_is_chart_invariant():
    f = liouville_c_field(2, 2)
    c = nd.identity_change(2, 2)
    assert f.in_chart(c) is f
