#include "util/table.h"

#include <algorithm>
#include "util/format.h"
#include <sstream>

#include "util/assert.h"

namespace gc {

TablePrinter::TablePrinter(std::string title) : title_(std::move(title)) {}

TablePrinter& TablePrinter::column(std::string name, ColumnFormat fmt) {
  GC_CHECK(rows_.empty(), "declare all columns before adding rows");
  columns_.push_back(Column{std::move(name), std::move(fmt)});
  return *this;
}

TablePrinter& TablePrinter::row() {
  GC_CHECK(!columns_.empty(), "declare columns before adding rows");
  GC_CHECK(rows_.empty() || rows_.back().size() == columns_.size(),
           "previous row is incomplete");
  rows_.emplace_back();
  rows_.back().reserve(columns_.size());
  return *this;
}

TablePrinter& TablePrinter::cell(double value) {
  GC_CHECK(!rows_.empty() && rows_.back().size() < columns_.size(),
           "cell() without room in the current row");
  rows_.back().emplace_back(value);
  return *this;
}

TablePrinter& TablePrinter::cell(std::string_view text) {
  GC_CHECK(!rows_.empty() && rows_.back().size() < columns_.size(),
           "cell() without room in the current row");
  rows_.back().emplace_back(std::string(text));
  return *this;
}

TablePrinter& TablePrinter::cell(long long value) {
  GC_CHECK(!rows_.empty() && rows_.back().size() < columns_.size(),
           "cell() without room in the current row");
  rows_.back().emplace_back(value);
  return *this;
}

std::string TablePrinter::render_cell(std::size_t col, const Cell& cell) const {
  const ColumnFormat& fmt = columns_[col].fmt;
  if (const auto* d = std::get_if<double>(&cell)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt.fixed ? "%.*f" : "%.*g", fmt.precision, *d);
    return buf;
  }
  if (const auto* i = std::get_if<long long>(&cell)) return std::to_string(*i);
  return std::get<std::string>(cell);
}

void TablePrinter::print(std::ostream& os) const { os << to_string(); }

std::string TablePrinter::to_string() const {
  GC_CHECK(rows_.empty() || rows_.back().size() == columns_.size(),
           "last row is incomplete");
  std::vector<std::string> headers;
  headers.reserve(columns_.size());
  for (const Column& c : columns_) {
    headers.push_back(c.fmt.unit.empty() ? c.name : c.name + " [" + c.fmt.unit + "]");
  }

  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = headers[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(render_cell(c, row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) os << "  ";
      if (cells[c].size() < widths[c]) os << std::string(widths[c] - cells[c].size(), ' ');
      os << cells[c];
    }
    os << '\n';
  };
  emit_row(headers);
  std::string rule;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) rule += "  ";
    rule += std::string(widths[c], '-');
  }
  os << rule << '\n';
  for (const auto& cells : rendered) emit_row(cells);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TablePrinter& table) {
  table.print(os);
  return os;
}

}  // namespace gc
