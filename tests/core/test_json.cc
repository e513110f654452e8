/**
 * @file
 * The report JSON writer (core/json.h): string escapes for every
 * control byte, doubles that read back to the same bits, null for
 * non-finite values, exact 64-bit integers, and separators in nested
 * and empty containers.
 */

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/json.h"

using aib::core::json::Writer;

namespace {

template <typename T>
std::string
one(const T &v)
{
    Writer w;
    w.value(v);
    return w.str();
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

TEST(JsonWriter, EscapesEveryControlByte)
{
    for (int byte = 0; byte < 0x20; ++byte) {
        SCOPED_TRACE(byte);
        const std::string text =
            one(std::string(1, static_cast<char>(byte)));
        ASSERT_GE(text.size(), 4u);
        ASSERT_EQ(text.front(), '"');
        ASSERT_EQ(text.back(), '"');
        const std::string escape = text.substr(1, text.size() - 2);
        for (const char c : escape)
            EXPECT_GE(static_cast<unsigned char>(c), 0x20);
        ASSERT_EQ(escape[0], '\\');
        if (escape.size() == 2) {
            const std::string shortForms = "b\bf\fn\nr\rt\t";
            const std::size_t at = shortForms.find(escape[1]);
            ASSERT_NE(at, std::string::npos);
            ASSERT_EQ(at % 2, 0u);
            EXPECT_EQ(shortForms[at + 1], static_cast<char>(byte));
        } else {
            ASSERT_EQ(escape.size(), 6u);
            EXPECT_EQ(escape.substr(0, 4), "\\u00");
            EXPECT_EQ(std::strtol(escape.substr(4).c_str(), nullptr, 16),
                      byte);
        }
    }
}

TEST(JsonWriter, EscapesQuoteAndBackslashAndPassesUtf8Through)
{
    EXPECT_EQ(one("say \"hi\" \\ bye"), R"("say \"hi\" \\ bye")");
    const std::string utf8 = "h\xC3\xA9llo \xE2\x82\xAC \xF0\x9D\x84\x9E";
    EXPECT_EQ(one(utf8), "\"" + utf8 + "\"");
}

TEST(JsonWriter, DoublesReadBackToTheSameBits)
{
    const double values[] = {0.1,     1.0 / 3.0, 5e-324,
                             DBL_MAX, -0.0,      1029078.0,
                             -12160.23944392536};
    for (const double v : values) {
        const std::string text = one(v);
        SCOPED_TRACE(text);
        char *end = nullptr;
        const double back = std::strtod(text.c_str(), &end);
        EXPECT_EQ(end, text.c_str() + text.size());
        EXPECT_EQ(bitsOf(back), bitsOf(v));
    }
    EXPECT_EQ(one(1029078.0), "1029078");
    EXPECT_EQ(one(0.1), "0.1");
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    EXPECT_EQ(one(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(one(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(one(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, IntegersAreExact)
{
    EXPECT_EQ(one(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(one(std::numeric_limits<std::uint64_t>::max()),
              "18446744073709551615");
    EXPECT_EQ(one(-7), "-7");
    EXPECT_EQ(one(7u), "7");
}

TEST(JsonWriter, SeparatesNestedAndEmptyContainers)
{
    Writer w;
    w.beginObject()
        .field("a", 1)
        .key("b")
        .beginArray()
        .endArray()
        .key("c")
        .beginObject()
        .endObject()
        .key("d")
        .beginArray()
        .value(1)
        .beginObject()
        .field("x", true)
        .field("y", false)
        .endObject()
        .beginArray()
        .endArray()
        .value(nullptr)
        .endArray()
        .field("e", "s")
        .endObject();
    EXPECT_EQ(w.str(), R"({"a":1,"b":[],"c":{},)"
                       R"("d":[1,{"x":true,"y":false},[],null],"e":"s"})");

    Writer empty;
    empty.beginArray().endArray();
    EXPECT_EQ(empty.str(), "[]");
}
