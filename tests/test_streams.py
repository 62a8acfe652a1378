"""Detection stream parsing: bad values are rejected with their line, a torn tail is told apart."""

import io
import json

import pytest

from nearcrash.streams import (
    StreamFormatError, TornLineError, frame_from_json, read_detection_stream,
)

GOOD_DET = {"class": "vehicle", "confidence": 1.0, "x1": 10.0, "y1": 20.0, "x2": 30.0, "y2": 40.0}


def line(t=0.0, **edges) -> str:
    # json.dumps writes float('nan') / float('inf') as NaN / Infinity
    return json.dumps({"frame_id": 1, "t_seconds": t, "detections": [{**GOOD_DET, **edges}]})


@pytest.mark.parametrize(
    "bad",
    [line(t=float("nan")), line(t=float("inf")), line(x2=float("inf"))],
    ids=["nan_t", "infinite_t", "infinite_box_edge"],
)
def test_non_finite_rejected_with_line_number(bad):
    stream = io.BytesIO(f"{line(t=0.0)}\n{bad}\n".encode())
    with pytest.raises(StreamFormatError, match="line 2: non-finite"):
        list(read_detection_stream(stream))


@pytest.mark.parametrize(
    "bad",
    [line(x2=GOOD_DET["x1"]), line(y1=50.0)],
    ids=["zero_width", "inverted"],
)
def test_degenerate_box_rejected_with_line_number(bad):
    stream = io.BytesIO(f"{line(t=0.0)}\n{bad}\n".encode())
    with pytest.raises(StreamFormatError, match="line 2: degenerate box"):
        list(read_detection_stream(stream))


@pytest.mark.parametrize(
    "encoded",
    [b"\xff" + line().encode(), b"\xef\xbb\xbf" + line().encode(), line().encode("utf-16-le")],
    ids=["not_utf8", "utf8_bom", "utf16"],
)
def test_line_not_in_plain_utf8_rejected_with_its_line_number(encoded):
    stream = io.BytesIO(line().encode() + b"\n" + encoded + b"\n")
    with pytest.raises(StreamFormatError, match="line 2: "):
        list(read_detection_stream(stream))


def test_integer_detection_values_are_read_as_floats():
    frame = frame_from_json(line(confidence=1, x1=10, y1=20, x2=30, y2=40))
    det = frame.detections[0]
    assert (det.confidence, det.box) == (1.0, (10.0, 20.0, 30.0, 40.0))
    assert all(type(v) is float for v in (det.confidence, *det.box))


def test_torn_last_line_is_told_apart():
    frames = read_detection_stream(io.BytesIO(f"{line(t=0.0)}\n{line(t=0.1)[:-10]}".encode()))
    assert next(frames).t == 0.0
    with pytest.raises(TornLineError, match="line 2"):
        next(frames)


def test_write_cut_inside_a_multibyte_character_is_torn():
    cut = line(t=0.1)[:-10].encode() + "é".encode()[:1]
    frames = read_detection_stream(io.BytesIO(line(t=0.0).encode() + b"\n" + cut))
    assert next(frames).t == 0.0
    with pytest.raises(TornLineError, match="line 2: 'utf-8' codec"):
        next(frames)


def test_malformed_terminated_last_line_is_not_torn():
    with pytest.raises(StreamFormatError) as info:
        list(read_detection_stream(io.BytesIO(f"{line(t=0.0)[:-10]}\n".encode())))
    assert not isinstance(info.value, TornLineError)


def test_complete_unterminated_last_line_parses():
    stream = io.BytesIO(f"{line(t=0.0)}\n{line(t=0.1)}".encode())
    assert [f.t for f in read_detection_stream(stream)] == [0.0, 0.1]
