"""Detection stream parsing: non-finite values are rejected with their line."""

import io
import json

import pytest

from nearcrash.streams import StreamFormatError, frame_from_json, read_detection_stream

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
    stream = io.StringIO(line(t=0.0) + "\n" + bad + "\n")
    with pytest.raises(StreamFormatError, match="line 2: non-finite"):
        list(read_detection_stream(stream))
