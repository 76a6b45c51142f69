"""Feature definitions, comment-header parsing, schema and encoding."""

import io

import numpy as np
import pytest

from _util import rev
from vandalstack.corpus import parse_line
from vandalstack.errors import EmptyDataset, IndexOutOfRange, MalformedLine
from vandalstack.featurize import (
    FeatureSchema,
    FeatureVector,
    build_schema,
    encode,
    encode_many,
    extract_content,
    extract_context,
    extract_features,
    load_schema,
    parse_comment_header,
    save_schema,
    schema_to_lines,
    vectors_to_csr,
)

FULL_LINE = (
    "308612969\t/* wbsetclaim-create:2||1 */ [[Property:P800]]: [[Q5974487]]"
    "\t1\t0,GB,EU,GMT,EN,LEEDS,WEST YORKSHIRE,"
)


def test_hello_world_hand_counts():
    out = extract_content("Hello WORLD 123").numeric
    assert out["commentLength"] == 15.0
    assert out["lowerCaseRatio"] == 4 / 15
    assert out["upperCaseRatio"] == 6 / 15
    assert out["digitRatio"] == 3 / 15
    assert out["whitespaceRatio"] == 2 / 15
    assert out["longestWord"] == 5.0
    # "ll" is a run of two identical characters, the longest in the text
    assert out["longestCharSeq"] == 2.0
    assert out["alphanumericRatio"] == 13 / 15
    assert out["punctuationRatio"] == 0.0
    assert out["latinRatio"] == 1.0
    assert out["nonLatinRatio"] == 0.0
    assert out["lowerCaseWordRatio"] == 0.0  # "Hello" is mixed case
    assert out["upperCaseWordRatio"] == 1 / 2


def test_empty_comment_all_zeros():
    out = extract_content("").numeric
    assert out
    assert all(value == 0.0 for value in out.values())


def test_trigger_substrings():
    out = extract_content(
        "see www.example.com #autolist2 [[Special:Contributions/abcd]]"
    ).numeric
    assert out["containsURL"] == 1.0
    assert out["containsHashTag"] == 1.0
    assert out["isSpecContriUser"] == 1.0

    quiet = extract_content("an ordinary comment").numeric
    assert quiet["containsURL"] == 0.0
    assert quiet["containsHashTag"] == 0.0
    assert quiet["isSpecContriUser"] == 0.0


def test_hashtag_needs_alphanumeric_after_hash():
    assert extract_content("# not a tag").numeric["containsHashTag"] == 0.0
    assert extract_content("nr # 1: #ok").numeric["containsHashTag"] == 1.0


def test_lang_word_features():
    out = extract_content("added english label").numeric
    assert out["containsLangWord"] == 1.0
    assert out["langWordRatio"] == 1 / 3
    none = extract_content("zzz qqq").numeric
    assert none["containsLangWord"] == 0.0
    assert none["langWordRatio"] == 0.0


def test_latin_ratio_uses_alphabetic_denominator():
    out = extract_content("ab 12 ΑΒ").numeric  # two Greek letters
    assert out["latinRatio"] == 0.5
    assert out["nonLatinRatio"] == 0.5
    digits_only = extract_content("123").numeric
    assert digits_only["latinRatio"] == 0.0
    assert digits_only["nonLatinRatio"] == 0.0


def test_ratios_bounded_and_run_lengths_bounded():
    rng = np.random.default_rng(4)
    alphabet = "aA1 .!éΑ#x"
    ratio_names = [
        "alphanumericRatio",
        "digitRatio",
        "langWordRatio",
        "latinRatio",
        "lowerCaseRatio",
        "lowerCaseWordRatio",
        "nonLatinRatio",
        "punctuationRatio",
        "upperCaseRatio",
        "upperCaseWordRatio",
        "whitespaceRatio",
    ]
    for _ in range(300):
        comment = "".join(
            alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 40))
        )
        out = extract_content(comment).numeric
        for name in ratio_names:
            assert 0.0 <= out[name] <= 1.0, (name, comment)
        assert out["longestCharSeq"] <= out["commentLength"]
        assert out["longestWord"] <= out["commentLength"]


def test_parse_comment_header_cases():
    assert parse_comment_header(
        "/* wbsetclaim-create:2||1 */ [[Property:P800]]: [[Q5974487]]"
    ) == ("wbsetclaim", "create", None)
    assert parse_comment_header("/* wbsetlabel-add:1|en */ x") == (
        "wbsetlabel",
        "add",
        "en",
    )
    assert parse_comment_header("free text comment") == (None, None, None)
    assert parse_comment_header("/* unclosed") == (None, None, None)
    assert parse_comment_header("/* clearitem */") == ("clearitem", None, None)
    # the final parameter must look like a bare 2-3 letter code
    assert parse_comment_header("/* wbsetdescription-add:1|nds */ d")[2] == "nds"
    assert parse_comment_header("/* wbsetlabel-add:1|q123 */ x")[2] is None
    assert parse_comment_header("/* wbsetlabel-add:1|EN */ x")[2] is None


def test_extract_context_from_full_line():
    categorical = extract_context(parse_line(FULL_LINE)).categorical
    assert categorical["userCountry"] == "GB"
    assert categorical["userContinent"] == "EU"
    assert categorical["userTimeZone"] == "GMT"
    assert categorical["userRegion"] == "EN"
    assert categorical["userCity"] == "LEEDS"
    assert categorical["userCounty"] == "WEST YORKSHIRE"
    assert categorical["revisionAction"] == "wbsetclaim"
    assert categorical["revisionSubaction"] == "create"
    assert categorical["revisionLanguage"] is None
    numeric = extract_context(parse_line(FULL_LINE)).numeric
    assert numeric["isRegisteredUser"] == 0.0


def test_registered_user_with_empty_geo():
    out = extract_context(rev(1, "hi", registered=True))
    assert out.numeric["isRegisteredUser"] == 1.0
    for name in (
        "userCountry",
        "userContinent",
        "userTimeZone",
        "userRegion",
        "userCity",
        "userCounty",
    ):
        assert out.categorical[name] is None


def test_latin_language_membership():
    latin = extract_context(rev(1, "/* wbsetlabel-add:1|en */ x"))
    assert latin.numeric["isLatinLanguage"] == 1.0
    assert latin.categorical["revisionLanguage"] == "en"
    non_latin = extract_context(rev(1, "/* wbsetlabel-add:1|ja */ x"))
    assert non_latin.numeric["isLatinLanguage"] == 0.0
    assert non_latin.categorical["revisionLanguage"] == "ja"


def test_revision_tag_from_hashtag():
    out = extract_context(rev(1, "tagging #autolist2 now"))
    assert out.categorical["revisionTag"] == "autolist2"
    assert extract_context(rev(1, "no tag")).categorical["revisionTag"] is None


def test_schema_counting_example():
    raws = [
        extract_features(rev(1, "a", country="GB")),
        extract_features(rev(2, "b", country="US")),
        extract_features(rev(3, "/* wbsetclaim-create:2||1 */ c")),
    ]
    schema = build_schema(raws)
    numeric_count = len(raws[0].numeric)
    # vocabulary: (revisionAction, wbsetclaim), (revisionSubaction, create),
    # (userCountry, GB), (userCountry, US)
    assert len(schema.categorical_vocab) == 4
    assert schema.total_dim == numeric_count + 4
    assert list(schema.numeric_names) == sorted(schema.numeric_names)
    assert list(schema.categorical_vocab) == sorted(schema.categorical_vocab)


def test_schema_is_order_invariant_bytes():
    revisions = [
        rev(i, comment, country=country)
        for i, (comment, country) in enumerate(
            [("a b", "GB"), ("x #t", "US"), ("/* set-it:1|en */", None), ("", "GB")]
        )
    ]
    raws = [extract_features(r) for r in revisions]
    forward = io.StringIO()
    save_schema(build_schema(raws), forward)
    backward = io.StringIO()
    save_schema(build_schema(list(reversed(raws))), backward)
    assert forward.getvalue() == backward.getvalue()


def test_schema_without_categoricals():
    schema = build_schema([extract_content("just words")])
    assert schema.total_dim == len(schema.numeric_names)
    assert schema.categorical_vocab == ()


def test_build_schema_empty_raises():
    with pytest.raises(EmptyDataset):
        build_schema([])


def test_encode_one_hot_and_unseen():
    raws = [
        extract_features(rev(1, "a", country="GB")),
        extract_features(rev(2, "b", country="US")),
    ]
    schema = build_schema(raws)
    base = len(schema.numeric_names)
    assert schema.categorical_vocab == (("userCountry", "GB"), ("userCountry", "US"))

    encoded = encode(extract_features(rev(3, "c", country="GB")), schema)
    one_hot = [(i, v) for i, v in encoded.entries if i >= base]
    assert one_hot == [(base, 1.0)]

    unseen = encode(extract_features(rev(4, "c", country="FR")), schema)
    assert all(i < base for i, _ in unseen.entries)


def test_encode_numeric_block_verbatim():
    schema = build_schema([extract_content("Hello WORLD 123")])
    encoded = encode(extract_content("Hello WORLD 123"), schema)
    dense = encoded.to_dense()
    assert dense[schema.numeric_index("lowerCaseRatio")] == 4 / 15
    assert dense[schema.numeric_index("commentLength")] == 15.0
    # zeros are never stored
    assert all(value != 0.0 for _, value in encoded.entries)


def test_encode_at_most_one_nonzero_per_categorical_feature():
    rng = np.random.default_rng(6)
    pool = ["GB", "US", "FR", None]
    revisions = [
        rev(
            i,
            comment=["", "a #b", "/* wbset-add:1|en */ x"][int(rng.integers(3))],
            country=pool[int(rng.integers(4))],
            city=pool[int(rng.integers(4))],
        )
        for i in range(40)
    ]
    raws = [extract_features(r) for r in revisions]
    schema = build_schema(raws)
    base = len(schema.numeric_names)
    for raw in raws:
        encoded = encode(raw, schema)
        per_feature: dict[str, int] = {}
        for idx, value in encoded.entries:
            if idx >= base:
                assert value == 1.0
                feature, _ = schema.categorical_vocab[idx - base]
                per_feature[feature] = per_feature.get(feature, 0) + 1
        assert all(count == 1 for count in per_feature.values())


def test_schema_round_trip_bytes(tmp_path):
    raws = [
        extract_features(rev(1, "a b c", country="GB", city="LEEDS")),
        extract_features(rev(2, "#tag", country="US")),
    ]
    schema = build_schema(raws)
    path = tmp_path / "schema.txt"
    save_schema(schema, path)
    first = path.read_bytes()
    reloaded = load_schema(path)
    assert reloaded == schema
    save_schema(reloaded, path)
    assert path.read_bytes() == first


def test_load_schema_rejects_bad_files():
    with pytest.raises(MalformedLine):
        load_schema(io.StringIO("not a schema\n"))
    with pytest.raises(MalformedLine):
        load_schema(io.StringIO("vandalstack-schema v1\nX oops\n"))
    # out-of-order columns are rejected, not silently reordered
    schema = build_schema(
        [extract_features(rev(1, "a", country="GB", city="LEEDS"))]
    )
    lines = schema_to_lines(schema)
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(MalformedLine) as info:
        load_schema(io.StringIO("\n".join(lines) + "\n"))
    assert info.value.line_no == 3
    # a repeated column is out of order too, not a second column
    for at in (1, len(lines) - 1):
        repeated = schema_to_lines(schema)
        repeated.insert(at, repeated[at])
        with pytest.raises(MalformedLine) as info:
            load_schema(io.StringIO("\n".join(repeated) + "\n"))
        assert info.value.line_no == at + 2


def test_feature_vector_validation():
    FeatureVector(dim=3, entries=((0, 1.0), (2, 0.5)))
    with pytest.raises(IndexOutOfRange):
        FeatureVector(dim=3, entries=((0, 1.0), (3, 1.0)))
    with pytest.raises(IndexOutOfRange):
        FeatureVector(dim=3, entries=((1, 1.0), (1, 2.0)))  # not increasing
    with pytest.raises(ValueError):
        FeatureVector(dim=3, entries=((1, 0.0),))
    with pytest.raises(ValueError):
        FeatureVector(dim=3, entries=((1, float("nan")),))


def test_vectors_to_csr_matches_dense():
    vectors = [
        FeatureVector(dim=4, entries=((0, 1.0), (3, 2.0))),
        FeatureVector(dim=4, entries=()),
        FeatureVector(dim=4, entries=((2, -1.5),)),
    ]
    mat = vectors_to_csr(vectors)
    assert mat.shape == (3, 4)
    dense = np.asarray(mat.todense())
    expected = np.array(
        [[1.0, 0, 0, 2.0], [0, 0, 0, 0], [0, 0, -1.5, 0]]
    )
    assert np.array_equal(dense, expected)


def test_encode_many_matches_encode():
    raws = [extract_features(rev(i, f"c{i}", country="GB")) for i in range(5)]
    schema = build_schema(raws)
    assert encode_many(raws, schema) == [encode(raw, schema) for raw in raws]
