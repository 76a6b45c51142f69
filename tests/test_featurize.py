"""Feature definitions, comment-header parsing, schema and encoding."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import rev
from vandalstack.corpus import parse_line
from vandalstack.errors import EmptyDataset, IndexOutOfRange, MalformedLine
from vandalstack.featurize import (
    FeatureSchema,
    FeatureVector,
    RawFeatures,
    build_schema,
    encode,
    encode_many,
    encode_matrix,
    extract_content,
    extract_context,
    extract_features,
    lang_words,
    load_schema,
    parse_comment_header,
    save_schema,
    schema_from_lines,
    schema_to_lines,
    vectors_to_csr,
)
from vandalstack.featurize import _char_flags, _find_hashtag

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
        load_schema(io.BytesIO("not a schema\n".encode()))
    with pytest.raises(MalformedLine):
        load_schema(io.BytesIO("vandalstack-schema v1\nX oops\n".encode()))
    # out-of-order columns are rejected, not silently reordered
    schema = build_schema(
        [extract_features(rev(1, "a", country="GB", city="LEEDS"))]
    )
    lines = schema_to_lines(schema)
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(MalformedLine) as info:
        load_schema(io.BytesIO(("\n".join(lines) + "\n").encode()))
    assert info.value.line_no == 3
    # a repeated column is out of order too, not a second column
    for at in (1, len(lines) - 1):
        repeated = schema_to_lines(schema)
        repeated.insert(at, repeated[at])
        with pytest.raises(MalformedLine) as info:
            load_schema(io.BytesIO(("\n".join(repeated) + "\n").encode()))
        assert info.value.line_no == at + 2


def test_schema_loader_accepts_exactly_what_the_writer_writes():
    schema = FeatureSchema(("a", "b"), (("userCity", "LEEDS"),))
    lines = schema_to_lines(schema)
    for at, bad in (
        (1, "N a\rz"),
        (2, "N b z"),
        (3, "C userCity\tLEE\rDS"),
        (3, "C userCity\tLEE\tDS"),
        (3, "C user\rCity\tLEEDS"),
    ):
        corrupted = list(lines)
        corrupted[at] = bad
        with pytest.raises(MalformedLine) as info:
            schema_from_lines(corrupted, offset=10)
        assert info.value.line_no == at + 11
    for value in ("LEE\rDS", "LEE\tDS"):
        with pytest.raises(ValueError):
            schema_to_lines(FeatureSchema(("a",), (("userCity", value),)))
    with pytest.raises(ValueError):
        schema_to_lines(FeatureSchema(("a",), (("user\tCity", "x"),)))
    # blank lines are skipped
    assert schema_from_lines(lines[:2] + [""] + lines[2:]) == schema


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


def fixture_raws():
    """Features of revisions with every kind of column, from this file's examples."""
    revisions = [
        parse_line(FULL_LINE),
        rev(1, "Hello WORLD 123", country="GB", city="LEEDS"),
        rev(2, "see www.example.com #autolist2 [[Special:Contributions/abcd]]"),
        rev(3, "/* wbsetlabel-add:1|en */ item", registered=True, country="US"),
        rev(4, ""),
        rev(5, "#tag", country="FR", continent="EU", timezone="CET"),
    ]
    return [extract_features(r) for r in revisions]


def csr_reference(raws, schema):
    return vectors_to_csr(encode_many(raws, schema), dim=schema.total_dim).toarray()


def assert_same_block(got, want):
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_encode_matrix_matches_csr_of_encode_many_bit_for_bit():
    raws = fixture_raws()
    for schema in (build_schema(raws), build_schema(raws[2:4])):
        assert_same_block(encode_matrix(raws, schema), csr_reference(raws, schema))
        for i, raw in enumerate(raws):
            assert encode_matrix(raws, schema)[i].tobytes() == encode(raw, schema).to_dense().tobytes()


NAMES = st.sampled_from(["a", "b", "c", "d"])
VALUES = st.sampled_from(["x", "y", "z", None])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            RawFeatures,
            numeric=st.dictionaries(NAMES, st.floats(allow_nan=False, allow_infinity=False)),
            categorical=st.dictionaries(NAMES, VALUES),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 8),
)
def test_encode_matrix_matches_csr_reference_on_any_features(raws, n_schema):
    # a schema built from a prefix leaves later names and values unseen
    schema = build_schema(raws[:n_schema])
    assert_same_block(encode_matrix(raws, schema), csr_reference(raws, schema))


def test_encode_matrix_of_no_rows_keeps_the_width():
    schema = build_schema(fixture_raws())
    assert_same_block(encode_matrix([], schema), np.zeros((0, schema.total_dim)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numeric_feature_fails_the_same_way_in_both_encoders(bad):
    schema = build_schema([RawFeatures(numeric={"a": 1.0, "b": 2.0})])
    raws = [RawFeatures(numeric={"a": 1.0}), RawFeatures(numeric={"a": 3.0, "b": bad})]
    with pytest.raises(ValueError) as via_encode:
        encode(raws[1], schema)
    with pytest.raises(ValueError) as via_matrix:
        encode_matrix(raws, schema)
    assert str(via_matrix.value) == str(via_encode.value) == f"numeric feature b is not finite: {bad!r}"


def reference_content(comment):
    """The content features one character at a time: the definition :func:`extract_content` must meet."""
    n = len(comment)
    lower = upper = digit = alnum = space = punct = alpha = latin = 0
    longest_run = 0
    run = 0
    prev = None
    for ch in comment:
        lo, up, dg, an, sp, pu, al, la = _char_flags(ch)
        lower += lo
        upper += up
        digit += dg
        alnum += an
        space += sp
        punct += pu
        alpha += al
        latin += la
        if ch == prev:
            run += 1
        else:
            run = 1
            prev = ch
        if run > longest_run:
            longest_run = run

    words = comment.split()
    longest_word = max((len(w) for w in words), default=0)
    cased = [w for w in words if any(c.isalpha() for c in w)]
    lower_words = sum(1 for w in cased if w.islower())
    upper_words = sum(1 for w in cased if w.isupper())
    known = lang_words()
    lang_hits = sum(1 for w in words if w.lower() in known)

    def ratio(count, denom):
        return count / denom if denom else 0.0

    return {
        "alphanumericRatio": ratio(alnum, n),
        "commentLength": float(n),
        "containsHashTag": 1.0 if _find_hashtag(comment) is not None else 0.0,
        "containsLangWord": 1.0 if lang_hits else 0.0,
        "containsURL": 1.0 if any(m in comment for m in ("http://", "https://", "www.")) else 0.0,
        "digitRatio": ratio(digit, n),
        "isSpecContriUser": 1.0 if "[[Special:Contributions/" in comment else 0.0,
        "langWordRatio": ratio(lang_hits, len(words)),
        "latinRatio": ratio(latin, alpha),
        "longestCharSeq": float(longest_run),
        "longestWord": float(longest_word),
        "lowerCaseRatio": ratio(lower, n),
        "lowerCaseWordRatio": ratio(lower_words, len(cased)),
        "nonLatinRatio": ratio(alpha - latin, alpha),
        "punctuationRatio": ratio(punct, n),
        "upperCaseRatio": ratio(upper, n),
        "upperCaseWordRatio": ratio(upper_words, len(cased)),
        "whitespaceRatio": ratio(space, n),
    }


# characters whose classes are easy to get wrong: every white space
# character, titlecase letters, cased characters that are not letters,
# symbols with no flag, letters of several scripts, non-BMP characters and
# a lone surrogate, beside plain ASCII and words of the language list
CHAR_POOL = (
    [chr(c) for c in range(0x3000 + 1) if chr(c).isspace()]
    + list("ǅǈªʰⅠⅰⓐͅ+^#")
    + list("aZ09_.,!?-/:|[]*'\"éßİΣσЖж中٣½")
    + ["\U0001d400", "\U00010400", "\U00010428", "\U0001f600", "\ud800"]
    + ["the", "The", "THE", "und", "ǅungla", "ⅰⅱ", "Ⓐⓑ", "http://", "aaaa"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(CHAR_POOL), st.characters()), max_size=60).map("".join))
def test_content_features_equal_the_per_character_definition(comment):
    got = extract_content(comment).numeric
    want = reference_content(comment)
    assert list(got) == list(want)
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


@pytest.mark.parametrize("comment", ["a" * 100_000, "ab" * 50_000, "ab cd ef " * 11_111, " " * 1000])
def test_long_comments_equal_the_per_character_definition(comment):
    got = extract_content(comment).numeric
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in reference_content(comment).items()}
