#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace gc {
namespace {

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter table("demo");
  table.column("name").column("value", {.precision = 2, .unit = "W"});
  table.row().cell("a").cell(1.5);
  table.row().cell("bee").cell(10.25);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("value [W]"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("10.25"), std::string::npos);
  // Every line has the same length (alignment).
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);  // title
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << "misaligned line: " << line;
  }
}

TEST(TablePrinter, GeneralFloatFormat) {
  TablePrinter table;
  table.column("x", {.precision = 3, .fixed = false});
  table.row().cell(123456.0);
  EXPECT_NE(table.to_string().find("1.23e+05"), std::string::npos);
}

TEST(TablePrinter, IntegerCells) {
  TablePrinter table;
  table.column("n");
  table.row().cell(static_cast<long long>(42));
  EXPECT_NE(table.to_string().find("42"), std::string::npos);
}

TEST(TablePrinter, EmptyTableRendersHeaderOnly) {
  TablePrinter table;
  table.column("only");
  const std::string out = table.to_string();
  EXPECT_NE(out.find("only"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TablePrinterDeath, ColumnsAfterRowsAbort) {
  TablePrinter table;
  table.column("a");
  table.row().cell(1.0);
  EXPECT_DEATH(table.column("late"), "declare all columns");
}

TEST(TablePrinterDeath, OverfullRowAborts) {
  TablePrinter table;
  table.column("a");
  table.row().cell(1.0);
  EXPECT_DEATH(table.cell(2.0), "without room");
}

TEST(TablePrinterDeath, IncompleteRowAbortsOnPrint) {
  TablePrinter table;
  table.column("a").column("b");
  table.row().cell(1.0);
  EXPECT_DEATH((void)table.to_string(), "incomplete");
}

TEST(TablePrinter, StreamOperator) {
  TablePrinter table;
  table.column("v");
  table.row().cell(7.0);
  std::ostringstream os;
  os << table;
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace gc
