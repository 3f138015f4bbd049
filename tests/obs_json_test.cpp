#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

namespace elephant::obs::json {
namespace {

using Kind = Value::Kind;

TEST(Json, ParsesEveryKindAndKeepsMemberOrder) {
  const auto v = parse(R"( {"b":[1,-2.5e3,true,false,null],"a":{"s":"x"}} )");
  ASSERT_TRUE(v);
  ASSERT_TRUE(v->is(Kind::kObject));
  ASSERT_EQ(v->object.size(), 2u);
  EXPECT_EQ(v->object[0].first, "b");
  EXPECT_EQ(v->object[1].first, "a");
  const Value& arr = *v->find("b");
  ASSERT_EQ(arr.array.size(), 5u);
  EXPECT_DOUBLE_EQ(arr.array[1].number, -2500.0);
  EXPECT_EQ(arr.array[1].text, "-2.5e3");
  EXPECT_TRUE(arr.array[2].is(Kind::kBool) && arr.array[2].boolean);
  EXPECT_TRUE(arr.array[3].is(Kind::kBool) && !arr.array[3].boolean);
  EXPECT_TRUE(arr.array[4].is(Kind::kNull));
  std::string s;
  EXPECT_TRUE(v->find("a")->string_at("s", &s));
  EXPECT_EQ(s, "x");
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_EQ(arr.find("b"), nullptr);  // not an object
}

TEST(Json, RejectsTrailingBytesAndBrokenStructure) {
  for (const char* bad : {"", " ", "{}x", "{} {}", "{", "{\"a\"}", "{\"a\":}", "{\"a\":1,}",
                          "[1,]", "[1 2]", "{a:1}", "tru", "nul", "\"open", "1e", "+1"}) {
    EXPECT_FALSE(parse(bad)) << bad;
  }
}

TEST(Json, NumbersAreFromCharsSpellings) {
  // inf/nan are what %.17g writes for non-finite doubles; callers that need
  // finite values check for themselves.
  const auto v = parse("[inf,-inf,nan,1e-320,18446744073709551615]");
  ASSERT_TRUE(v);
  EXPECT_TRUE(std::isinf(v->array[0].number) && v->array[0].number > 0);
  EXPECT_TRUE(std::isinf(v->array[1].number) && v->array[1].number < 0);
  EXPECT_TRUE(std::isnan(v->array[2].number));
  EXPECT_GT(v->array[3].number, 0.0);
  std::uint64_t big = 0;
  EXPECT_TRUE(scan_number(v->array[4].text, &big));
  EXPECT_EQ(big, 18446744073709551615ull);  // exact, unlike the double
  EXPECT_FALSE(parse("[1e400]"));           // out of double range
}

TEST(Json, NumberAtScansExactlyIntoTheRequestedType) {
  const auto v = parse(R"({"n":7,"f":1.5,"neg":-1,"s":"7"})");
  ASSERT_TRUE(v);
  int i = 0;
  EXPECT_TRUE(v->number_at("n", &i));
  EXPECT_EQ(i, 7);
  EXPECT_FALSE(v->number_at("f", &i));  // fractional into an integer
  unsigned u = 0;
  EXPECT_FALSE(v->number_at("neg", &u));
  EXPECT_FALSE(v->number_at("s", &i));  // a string is not a number
  EXPECT_FALSE(v->number_at("absent", &i));
  double d = 0;
  EXPECT_TRUE(v->number_at("f", &d));
  EXPECT_DOUBLE_EQ(d, 1.5);
}

// \uXXXX decoding and surrogate pairs are covered through the manifest in
// exp_manifest_unicode_test.cpp.
TEST(Json, StringEscapesDecodeAndUnknownOnesFail) {
  const auto v = parse(R"("a\"b\\c\/d\b\f\n\r\t")");
  ASSERT_TRUE(v);
  EXPECT_EQ(v->text, "a\"b\\c/d\b\f\n\r\t");
  EXPECT_FALSE(parse(R"("\x")"));          // unknown escape
  EXPECT_FALSE(parse("\"tab\there\""));  // raw control byte
}

TEST(Json, DeepNestingIsRejectedNotRecursedForever) {
  EXPECT_TRUE(parse(std::string(64, '[') + std::string(64, ']')));
  EXPECT_FALSE(parse(std::string(65, '[') + std::string(65, ']')));
  EXPECT_FALSE(parse(std::string(100000, '[')));
}

}  // namespace
}  // namespace elephant::obs::json
