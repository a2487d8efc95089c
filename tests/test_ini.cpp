#include "util/ini.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace gc {
namespace {

TEST(Ini, ParsesSectionsAndKeys) {
  const IniFile ini = IniFile::parse("[a]\nx = 1\ny = hello\n[b]\nz=2\n");
  EXPECT_EQ(ini.section_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ini.keys("a"), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(ini.keys("c").empty());
  EXPECT_EQ(ini.line_of("b"), 4u);
  EXPECT_EQ(ini.line_of("a", "y"), 3u);
  EXPECT_EQ(ini.line_of("a", "missing"), 0u);
  EXPECT_EQ(ini.get("a", "x").value(), "1");
  EXPECT_EQ(ini.get("a", "y").value(), "hello");
  EXPECT_EQ(ini.get("b", "z").value(), "2");
  EXPECT_FALSE(ini.get("a", "missing").has_value());
}

TEST(Ini, CommentsAndBlankLines) {
  const IniFile ini = IniFile::parse("# header\n[s]\n; comment\n\nk = v # not stripped\n");
  // Inline comments are not supported (values may contain '#').
  EXPECT_EQ(ini.get("s", "k").value(), "v # not stripped");
}

TEST(Ini, TrimsWhitespace) {
  const IniFile ini = IniFile::parse("[ s ]\n  key   =   value  \n");
  EXPECT_EQ(ini.get("s", "key").value(), "value");
}

TEST(Ini, MalformedInputThrows) {
  EXPECT_THROW(IniFile::parse("key = outside\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[]\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[s]\nno equals sign\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[s]\n= value\n"), std::runtime_error);
}

TEST(Ini, TypedAccessors) {
  const IniFile ini =
      IniFile::parse("[t]\nd = 2.5\ni = 7\nb1 = true\nb2 = off\nbad = xyz\n");
  EXPECT_DOUBLE_EQ(ini.get_double_or("t", "d", 0.0), 2.5);
  EXPECT_EQ(ini.get_int_or("t", "i", 0), 7);
  EXPECT_TRUE(ini.get_bool_or("t", "b1", false));
  EXPECT_FALSE(ini.get_bool_or("t", "b2", true));
  EXPECT_DOUBLE_EQ(ini.get_double_or("t", "missing", 9.0), 9.0);
  EXPECT_THROW((void)ini.get_double_or("t", "bad", 0.0), std::runtime_error);
  EXPECT_THROW((void)ini.get_int_or("t", "d", 0), std::runtime_error);
  EXPECT_THROW((void)ini.get_bool_or("t", "bad", false), std::runtime_error);
}

TEST(Ini, LoadMissingFileThrows) {
  EXPECT_THROW(IniFile::load("/nonexistent/gc.ini"), std::runtime_error);
}

// A repeated key would silently keep one of two values, a repeated header
// would silently merge two sections: both are errors naming the lines.
TEST(Ini, RejectsRepeatedKeysAndSections) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      (void)IniFile::parse(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_EQ(message("[s]\nk = 1\nk = 2\n"),
            "ini line 3: repeated key 'k' in [s] (first at line 2)");
  EXPECT_EQ(message("[s]\nk = 1\n[t]\n[s]\nj = 2\n"),
            "ini line 4: repeated section [s] (first at line 1)");
  // The same key in two different sections is fine.
  EXPECT_EQ(message("[s]\nk = 1\n[t]\nk = 2\n"), "parsed");
}

}  // namespace
}  // namespace gc
