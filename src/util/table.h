// Aligned ASCII table printer used by every bench harness.
//
// The bench binaries regenerate the paper's tables/figures as text; a single
// shared printer keeps their output uniform and machine-diffable.  Columns
// are declared once with a format; rows are then appended as doubles /
// strings and rendered right-aligned.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace gc {

// How a numeric cell is rendered.
struct ColumnFormat {
  int precision = 3;       // digits after the decimal point
  bool fixed = true;       // fixed vs general formatting
  std::string unit;        // appended to the header as " [unit]"
};

class TablePrinter {
 public:
  // `title` is printed once above the header, prefixed with "== ".
  explicit TablePrinter(std::string title = {});

  // Declares the next column.  All columns must be declared before rows are
  // added.  Returns *this for chaining.
  TablePrinter& column(std::string name, ColumnFormat fmt = {});

  // Starts a new row; subsequent cell() calls fill it left to right.
  TablePrinter& row();
  TablePrinter& cell(double value);
  TablePrinter& cell(std::string_view text);
  TablePrinter& cell(long long value);

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t num_columns() const noexcept { return columns_.size(); }

  // Renders the table.  Also usable via operator<<.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  using Cell = std::variant<double, long long, std::string>;

  [[nodiscard]] std::string render_cell(std::size_t col, const Cell& cell) const;

  std::string title_;
  struct Column {
    std::string name;
    ColumnFormat fmt;
  };
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TablePrinter& table);

}  // namespace gc
