// SPDX-License-Identifier: Apache-2.0
#include "common/table.hpp"

#include <gtest/gtest.h>

namespace mp3d {
namespace {

TEST(Table, AlignsColumns) {
  Table t("Demo");
  t.header({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer | 22"), std::string::npos);
}

TEST(TableFormat, Percent) {
  EXPECT_EQ(fmt_pct(0.091), "+9.1 %");
  EXPECT_EQ(fmt_pct(-0.335), "-33.5 %");
  EXPECT_EQ(fmt_pct(0.0), "+0.0 %");
}

TEST(TableFormat, NormalizedAndCounts) {
  EXPECT_EQ(fmt_norm(0.955), "0.955");
  EXPECT_EQ(fmt_count(182900), "182.9e3");
  EXPECT_EQ(fmt_count(42), "42");
}

}  // namespace
}  // namespace mp3d
