"""JSON-with-comments parsing of config files."""

import json

import pytest

from crossemo.config import load_json_config, strip_json_comments
from crossemo.errors import ValidationFailure


def test_line_and_block_comments_are_removed():
    text = '{"a": 1, // to the end of the line\n "b": /* inline */ 2 /* two\nlines */}'
    assert json.loads(strip_json_comments(text)) == {"a": 1, "b": 2}


def test_comment_markers_and_escaped_quotes_inside_strings_are_kept():
    text = r'{"url": "http://x/*y*/", "quote": "say \"//hi\" /*", "end": "\\"} // gone'
    assert json.loads(strip_json_comments(text)) == {
        "url": "http://x/*y*/", "quote": 'say "//hi" /*', "end": "\\",
    }


@pytest.mark.parametrize("text", ['{"a": 1} /* never closed', '{"a": /* never closed 1}'])
def test_unterminated_block_comment_is_a_validation_failure(tmp_path, text):
    (tmp_path / "c.json").write_text(text)
    with pytest.raises(ValidationFailure, match="unterminated"):
        load_json_config(tmp_path / "c.json")
