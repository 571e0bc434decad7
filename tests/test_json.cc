/**
 * @file
 * base/json.hh: writer/parser round trips, escaping, strict
 * integer preservation, and malformed-input diagnostics.
 */

#include <gtest/gtest.h>

#include <limits>

#include "base/json.hh"

using namespace smtsim;

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(Json, LargeIntegersStayExact)
{
    const std::uint64_t big = 2'000'000'000ull * 3;   // > 2^32
    const Json j = Json::parse(Json(big).dump());
    EXPECT_EQ(j.asU64(), big);
}

TEST(Json, IntegerAccessorsAreExact)
{
    // Unsigned values past INT64_MAX print and parse as themselves.
    const std::uint64_t top = ~std::uint64_t{0};
    EXPECT_EQ(Json(top).dump(), "18446744073709551615");
    EXPECT_EQ(Json::parse("18446744073709551615").asU64(), top);
    EXPECT_THROW(Json::parse("18446744073709551615").asInt(),
                 JsonParseError);
    // Negative, fractional and out-of-range values are not
    // truncated or wrapped.
    EXPECT_THROW(Json::parse("-1").asU64(), JsonParseError);
    EXPECT_THROW(Json::parse("2.5").asInt(), JsonParseError);
    EXPECT_THROW(Json::parse("1e300").asInt(), JsonParseError);
    EXPECT_THROW(Json::parse("18446744073709551616").asU64(),
                 JsonParseError);
    EXPECT_EQ(Json::parse("4.0").asInt(), 4);
    EXPECT_EQ(Json::parse("-9223372036854775808").asInt(),
              std::numeric_limits<std::int64_t>::min());
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", Json(1));
    obj.set("alpha", Json(2));
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
    obj.set("zebra", Json(3));   // overwrite keeps position
    EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, NestedRoundTrip)
{
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    Json inner = Json::object();
    inner.set("pi", Json(3.25));
    arr.push(std::move(inner));
    Json doc = Json::object();
    doc.set("items", std::move(arr));
    doc.set("ok", Json(true));

    const Json back = Json::parse(doc.dump(2));
    EXPECT_EQ(back.at("items").size(), 3u);
    EXPECT_EQ(back.at("items").at(0).asInt(), 1);
    EXPECT_EQ(back.at("items").at(1).asString(), "two");
    EXPECT_DOUBLE_EQ(back.at("items").at(2).at("pi").asDouble(),
                     3.25);
    EXPECT_TRUE(back.at("ok").asBool());
    // Pretty and compact dumps parse identically.
    EXPECT_EQ(Json::parse(doc.dump()).dump(), back.dump());
}

TEST(Json, StringEscaping)
{
    const std::string nasty = "a\"b\\c\nd\te\x01f";
    const Json back = Json::parse(Json(nasty).dump());
    EXPECT_EQ(back.asString(), nasty);
}

TEST(Json, UnicodeEscapeParsing)
{
    EXPECT_EQ(Json::parse("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(Json::parse("\"\\u00e9\"").asString(), "\xc3\xa9");
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse(""), JsonParseError);
    EXPECT_THROW(Json::parse("{"), JsonParseError);
    EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
    EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonParseError);
    EXPECT_THROW(Json::parse("tru"), JsonParseError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(Json::parse("1 2"), JsonParseError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonParseError);
}

TEST(Json, AccessorTypeChecks)
{
    const Json j = Json::parse("{\"n\":1}");
    EXPECT_THROW(j.at("missing"), JsonParseError);
    EXPECT_THROW(j.at("n").asString(), JsonParseError);
    EXPECT_THROW(j.at("n").asBool(), JsonParseError);
    EXPECT_EQ(j.at("n").asInt(), 1);
}

TEST(Json, WhitespaceTolerance)
{
    const Json j =
        Json::parse("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ");
    EXPECT_EQ(j.at("a").size(), 2u);
    EXPECT_TRUE(j.at("b").isNull());
}

// ----------------------------------------------------------------
// Hardened error paths: every rejection carries a byte offset and
// nothing — truncation, mutation, random bytes, absurd nesting —
// may crash the parser.
// ----------------------------------------------------------------

#include <string>

#include "base/random.hh"

namespace
{

/**
 * parse() must either return a value or throw JsonParseError whose
 * offset lies inside [0, size] and whose what() names it.
 */
void
expectParseIsTotal(const std::string &text)
{
    try {
        (void)Json::parse(text);
    } catch (const JsonParseError &e) {
        EXPECT_NE(e.offset(), JsonParseError::npos) << e.what();
        EXPECT_LE(e.offset(), text.size()) << e.what();
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos);
    }
}

} // namespace

TEST(JsonHardening, ParseErrorsCarryByteOffsets)
{
    try {
        Json::parse("{\"a\": tru}");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.offset(), 6u);
    }
    try {
        Json::parse("[1, 2");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.offset(), 5u);   // end of truncated input
    }
    // Accessor misuse is distinguishable from parse failures.
    try {
        Json(1).asString();
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.offset(), JsonParseError::npos);
    }
}

TEST(JsonHardening, DeepNestingIsRejectedNotFatal)
{
    const std::string deep(100000, '[');
    try {
        Json::parse(deep);
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_LE(e.offset(),
                  static_cast<std::size_t>(Json::kMaxParseDepth));
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos);
    }
    // Matched-but-deep documents fail the same way.
    std::string balanced(300, '[');
    balanced += std::string(300, ']');
    EXPECT_THROW(Json::parse(balanced), JsonParseError);
    // Depth at the limit still parses.
    std::string ok(Json::kMaxParseDepth, '[');
    ok += std::string(Json::kMaxParseDepth, ']');
    EXPECT_NO_THROW(Json::parse(ok));
}

TEST(JsonHardening, TruncationFuzz)
{
    // Every prefix of a representative document must be handled.
    const std::string doc =
        "{\"schema\":1,\"key\":\"ab\\u0041c\",\"vals\":[1,-2.5,"
        "1e3,true,false,null],\"nest\":{\"s\":\"\\n\\t\\\\\"}}";
    ASSERT_NO_THROW(Json::parse(doc));
    for (std::size_t n = 0; n < doc.size(); ++n)
        expectParseIsTotal(doc.substr(0, n));
}

TEST(JsonHardening, MutationAndGarbageFuzz)
{
    const std::string doc =
        "{\"a\":[{\"b\":-12.75e2},\"x\",null,true],"
        "\"c\":\"q\\\"uo\\u00e9te\"}";
    Rng rng(0xfadedcafeull);
    // Single- and multi-byte mutations of a valid document.
    for (int iter = 0; iter < 4000; ++iter) {
        std::string mutated = doc;
        const int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f) {
            const std::size_t at = rng.nextBelow(mutated.size());
            mutated[at] = static_cast<char>(rng.nextBelow(256));
        }
        expectParseIsTotal(mutated);
    }
    // Pure random byte strings.
    for (int iter = 0; iter < 2000; ++iter) {
        std::string garbage(rng.nextBelow(64), '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng.nextBelow(256));
        expectParseIsTotal(garbage);
    }
}
