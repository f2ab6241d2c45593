"""The certificate writer: `to_json` is `json.dumps(obj, sort_keys=True,
indent=2)` plus a newline, byte for byte, without json's pure-Python
encoder."""

import json

from hypothesis import given, settings, strategies as st

from covwit import certificate, hh, quo, werner3

EDGES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7, float("nan"),
         float("inf"), -float("inf"), 2**70, True, False, None]
LEAVES = (st.sampled_from(EDGES) | st.floats() | st.integers() | st.text()
          | st.text(st.characters(max_codepoint=31)))
KEYS = st.text() | st.integers()
TREES = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)
                  | st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=24)


def outcome(write, obj):
    try:
        return write(obj)
    except Exception as e:  # the exception type is part of the outcome
        return type(e)


@settings(max_examples=500)
@given(TREES)
def test_writer_is_json_dumps_indent_2(obj):
    assert (outcome(certificate._write, obj)
            == outcome(lambda o: json.dumps(o, sort_keys=True, indent=2), obj))


def certificates():
    for d in range(3, 9):
        yield from (hh.decide(v) for v in hh.ppt_vertices(d))
    for d in (3, 4):
        yield werner3.detect_entanglement_w3(
            werner3.S3Coeffs(d, 1 / d**3, 0, 0, 0, 0), grid=8)
        yield werner3.detect_entanglement_w3(werner3.rho_t_coeffs(d, 1.0),
                                             grid=8)
    for d in (2, 3):
        yield quo.decide_quo(quo.QuoCoeffs(d, 1 / d**3, 0, 0, 0, 0), grid=8)
        yield quo.decide_quo(quo.QuoCoeffs(d, 0, 1 / d**2, 0, 0, 0), grid=8)


def test_to_json_is_the_stdlib_form(monkeypatch):
    """hh at every PPT vertex for d = 3..8; werner3 and quo at I/d^3 and at
    an entangled state."""
    certs = list(certificates())
    assert {c.verdict for c in certs} >= {"EB", "SEPARABLE", "ENTANGLED"}
    ours = [c.to_json() for c in certs]
    monkeypatch.setattr(certificate, "_write", lambda obj: json.dumps(
        obj, sort_keys=True, indent=2))
    assert ours == [c.to_json() for c in certs]

