from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchrec.errors import ConfigError, read_input

_PIECES = st.sampled_from(
    [b"\r", b"\n", b"\r\n", b"\n\r", b"\xef\xbb\xbf", b"a", b" ", b"\xc3\xa9", b"\xe2\x82\xac",
     b"\xf0\x9f\x98\x80", b"\xc3", b"\xe2\x82", b"\xff", b"\x80", b"\xed\xa0\x80", b"\x00"]
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("read-input") / "input.txt"


@example(b"")
@example(b"\xef\xbb\xbfa\r\nb\rc\n")
@example(b"a\r\r\nb\r")
@example(b"ok\r\n" * 5000 + b"\xff")
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.lists(_PIECES, max_size=40).map(b"".join)))
def test_read_input_reads_what_read_text_reads(input_file, data):
    """The same text as ``Path.read_text(encoding="utf-8")`` (CR LF and
    lone CR read as LF, a BOM kept), or the same error for bytes that are
    not UTF-8."""
    input_file.write_bytes(data)
    try:
        expected = input_file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        with pytest.raises(ConfigError) as raised:
            read_input(input_file, "test file", str)
        assert str(raised.value) == f"cannot read test file {input_file}: UnicodeDecodeError: {exc}"
    else:
        assert read_input(input_file, "test file", str) == expected
