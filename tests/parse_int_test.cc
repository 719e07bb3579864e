// The full-consumption integer parser behind the tools' numeric flags.

#include "common/parse_int.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace tmotif {
namespace {

TEST(ParseInt64, AcceptsSignedDecimals) {
  std::int64_t v = 0;
  ASSERT_TRUE(ParseInt64("3600", &v));
  EXPECT_EQ(v, 3600);
  ASSERT_TRUE(ParseInt64("-3", &v));
  EXPECT_EQ(v, -3);
  ASSERT_TRUE(ParseInt64("+7", &v));
  EXPECT_EQ(v, 7);
  ASSERT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  ASSERT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
}

TEST(ParseInt64, RejectsPartialEmptyAndOutOfRangeValues) {
  std::int64_t v = 42;
  for (const char* bad : {"", "1h", "3.5", "12 ", " 12", "0x10", "-", "+",
                          "abc", "99999999999999999999",
                          "-99999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad, &v)) << '"' << bad << '"';
  }
  EXPECT_FALSE(ParseInt64(nullptr, &v));
  EXPECT_EQ(v, 42);  // Failures leave the output untouched.
}

TEST(ParseInt, RejectsValuesOutsideTheTargetType) {
  int i = 5;
  EXPECT_TRUE(ParseInt("-2147483648", &i));
  EXPECT_EQ(i, -2147483648LL);
  EXPECT_FALSE(ParseInt("2147483648", &i));
  EXPECT_FALSE(ParseInt("99999999999", &i));
  EXPECT_EQ(i, -2147483648LL);
  long long ll = 0;
  EXPECT_TRUE(ParseInt("99999999999", &ll));
  EXPECT_EQ(ll, 99999999999LL);
}

}  // namespace
}  // namespace tmotif
